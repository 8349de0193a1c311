package tracklog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// packageSection is the heading of a package's or a command's section in
// DESIGN.md: "### `internal/x`" or "### `cmd/x`".
var packageSection = regexp.MustCompile("(?m)^### `((?:internal|cmd)/[a-z0-9/]+)`$")

// TestDesignInventoryMatchesTree holds DESIGN.md's package sections to the
// tree: their headings name exactly the directories under internal/ that
// hold a non-test Go file, testdata aside, and the directories under cmd/,
// each once.
func TestDesignInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range packageSection.FindAllStringSubmatch(string(doc), -1) {
		listed = append(listed, m[1])
	}

	var tree []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			tree = append(tree, filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() {
			tree = append(tree, "cmd/"+d.Name())
		}
	}

	slices.Sort(tree)
	tree = slices.Compact(tree)
	slices.Sort(listed)
	for _, p := range tree {
		if _, found := slices.BinarySearch(listed, p); !found {
			t.Errorf("DESIGN.md has no section for %s", p)
		}
	}
	for i, p := range listed {
		if _, found := slices.BinarySearch(tree, p); !found {
			t.Errorf("DESIGN.md has a section for %s, which the tree does not have", p)
		} else if i > 0 && listed[i-1] == p {
			t.Errorf("DESIGN.md has two sections for %s", p)
		}
	}
}

// declarations is what TestDesignReferencesResolve resolves names against,
// parsed from the module's Go files, _test.go files included, testdata and
// the bench module aside.
type declarations struct {
	// decls holds each package's top-level names and the fields and methods
	// of its types, by package name.
	decls map[string]map[string]bool
	// members holds the fields and methods of every type, by type name:
	// types of one name in two packages share a set. An embedded type's
	// name is a member; its own members are not.
	members map[string]map[string]bool
	// tests is every Test, Fuzz and Benchmark function.
	tests map[string]bool
}

func loadDeclarations(t *testing.T) *declarations {
	t.Helper()
	ds := &declarations{decls: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		tests: map[string]bool{}}
	isTest := regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)
	set := func(m map[string]map[string]bool, k string) map[string]bool {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		return m[k]
	}
	typeName := func(e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				return x.Sel.Name
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.Ident:
				return x.Name
			default:
				return ""
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || path == "bench" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decls := set(ds.decls, strings.TrimSuffix(f.Name.Name, "_test"))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				decls[decl.Name.Name] = true
				if decl.Recv != nil {
					set(ds.members, typeName(decl.Recv.List[0].Type))[decl.Name.Name] = true
				} else if strings.HasSuffix(path, "_test.go") && isTest.MatchString(decl.Name.Name) {
					ds.tests[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							decls[n.Name] = true
						}
					case *ast.TypeSpec:
						decls[spec.Name.Name] = true
						members := set(ds.members, spec.Name.Name)
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, field := range fields {
							for _, n := range field.Names {
								members[n.Name], decls[n.Name] = true, true
							}
							if len(field.Names) == 0 { // embedded
								name := typeName(field.Type)
								members[name], decls[name] = true, true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// designPointer is a pointer into DESIGN.md from a comment or a document:
// the file's name, then "§" and either a number, which names the top-level
// section so numbered, or a path such as internal/kvdb or cmd/trailsim,
// which names that package's or command's section. A comment may break the
// line between the name and the "§".
var designPointer = regexp.MustCompile(`DESIGN\.md[\s/]*§\s*((?:internal|cmd)/[a-z0-9/]*[a-z0-9]|[0-9]+)`)

// TestDesignReferencesResolve holds DESIGN.md to the code. Every backticked
// pkg.Name, Type.Method or Type.Field whose first part is a package of the
// module or a type it declares names a declaration (pkg.name may name a
// method or field of one of the package's types); every backticked Test,
// Fuzz or Benchmark function exists in a _test.go file; every "DESIGN.md §"
// pointer in the Go files, README.md and .claude/skills/verify/SKILL.md
// names a section that exists; and the document carries no history of how
// it came to be.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	ds := loadDeclarations(t)

	// A file name or a metric name (snake_case) is not a Go reference.
	notGo := regexp.MustCompile(`\.(go|json|md|csv|prom|sh|txt|yml|mod)$|\.[a-z0-9]+(_[a-z0-9]+)+$`)
	dotted := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$`)
	testName := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, m := range regexp.MustCompile("`([^`\n]+)`").FindAllStringSubmatch(text, -1) {
		span := m[1]
		for _, name := range testName.FindAllString(span, -1) {
			if !ds.tests[name] {
				t.Errorf("DESIGN.md cites %s, which no _test.go file declares", name)
			}
		}
		ref := strings.TrimLeft(span, "*&")
		if i := strings.IndexAny(ref, "([ "); i >= 0 {
			ref = ref[:i]
		}
		if !dotted.MatchString(ref) || notGo.MatchString(ref) {
			continue
		}
		parts := strings.Split(ref, ".")
		switch {
		case ds.decls[parts[0]] != nil:
			pkg, name := parts[0], parts[1]
			switch {
			case !ds.decls[pkg][name]:
				t.Errorf("DESIGN.md cites %s: package %s declares no %s", ref, pkg, name)
			case len(parts) > 2 && !ds.members[name][parts[2]]:
				t.Errorf("DESIGN.md cites %s: %s.%s has no field or method %s", ref, pkg, name, parts[2])
			}
		case ds.members[parts[0]] != nil:
			if !ds.members[parts[0]][parts[1]] {
				t.Errorf("DESIGN.md cites %s: no type %s has a field or method %s", ref, parts[0], parts[1])
			}
		}
	}

	for _, bad := range regexp.MustCompile(`\bPR \d+|ROADMAP item`).FindAllString(text, -1) {
		t.Errorf("DESIGN.md carries history (%q): it belongs in CHANGES.md", bad)
	}

	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+)\. `).FindAllStringSubmatch(text, -1) {
		sections[m[1]] = true
	}
	for _, m := range packageSection.FindAllStringSubmatch(text, -1) {
		sections[m[1]] = true
	}
	sources := []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range sources {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designPointer.FindAllStringSubmatch(string(b), -1) {
			if !sections[m[1]] {
				t.Errorf("%s points at DESIGN.md §%s, which DESIGN.md does not have", path, m[1])
			}
		}
	}
}

// designWordCeiling is the most words DESIGN.md may hold. A change may only
// lower it: DESIGN.md is a map of the code, and a new paragraph pays for
// itself by cutting one.
const designWordCeiling = 7382

// TestDesignWordCeiling holds DESIGN.md to designWordCeiling words, counted
// as `LC_ALL=C wc -w` counts them: a word is a run of bytes between ASCII
// whitespace that holds at least one printable ASCII character.
func TestDesignWordCeiling(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	words := 0
	for _, w := range strings.FieldsFunc(string(doc), func(r rune) bool { return strings.ContainsRune(" \t\n\v\f\r", r) }) {
		if strings.ContainsFunc(w, func(r rune) bool { return r > ' ' && r < 0x7f }) {
			words++
		}
	}
	if words > designWordCeiling {
		t.Errorf("DESIGN.md has %d words, above its ceiling of %d; cut as many as you add", words, designWordCeiling)
	}
}
