package tracklog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagCtors are the flag constructors the commands call, on the flag
// package or on a *flag.FlagSet: X.String("name", default, usage).
var flagCtors = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Int": true,
	"Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// TestUsageCommentsMatchFlags holds each command's package comment to the
// flags its main.go defines: every flag appears in the comment as -name,
// and every -name the comment mentions is defined. A -name that follows
// another command's name on the same line ("trailsim -out") is that
// command's flag and must be defined there.
func TestUsageCommentsMatchFlags(t *testing.T) {
	files, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no commands found: %v", err)
	}
	docs := make(map[string]string)
	defined := make(map[string]map[string]bool)
	var names []string
	for _, f := range files {
		cmd := filepath.Base(filepath.Dir(f))
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, cmd)
		docs[cmd] = af.Doc.Text()
		defined[cmd] = flagsDefined(af)
	}
	cmdRef := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
	flagRef := regexp.MustCompile(`(?:^|[\s\[(|/])-([a-z][a-z0-9]*(?:-[a-z0-9]+)*)`)
	for _, cmd := range names {
		mentioned := make(map[string]bool)
		for _, line := range strings.Split(docs[cmd], "\n") {
			cmds := cmdRef.FindAllStringSubmatchIndex(line, -1)
			for _, m := range flagRef.FindAllStringSubmatchIndex(line, -1) {
				owner := cmd
				for _, c := range cmds {
					if c[1] <= m[2] {
						owner = line[c[2]:c[3]]
					}
				}
				name := line[m[2]:m[3]]
				if owner == cmd {
					mentioned[name] = true
				}
				if !defined[owner][name] {
					t.Errorf("%s: the usage comment names -%s, which %s does not define", cmd, name, owner)
				}
			}
		}
		var missing []string
		for name := range defined[cmd] {
			if !mentioned[name] {
				missing = append(missing, "-"+name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: flags missing from the usage comment: %s", cmd, strings.Join(missing, " "))
		}
	}
}

// flagPins is each command's flag count. A flag is surface every recipe,
// doc and test must keep working, so the count only moves on purpose.
var flagPins = map[string]int{
	"benchpairs": 4, "clustersim": 5, "crashexplore": 9, "reproduce": 5,
	"rundiff": 5, "trailcheck": 3, "trailfmt": 1, "trailsim": 16,
}

// TestFlagCountPinned holds every command's flag count to its pin, so the
// flag census is a checked number.
func TestFlagCountPinned(t *testing.T) {
	files, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no commands found: %v", err)
	}
	if len(files) != len(flagPins) {
		t.Errorf("%d commands, %d pinned; pin every command's flag count", len(files), len(flagPins))
	}
	for _, f := range files {
		cmd := filepath.Base(filepath.Dir(f))
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(flagsDefined(af)), flagPins[cmd]; got != want {
			t.Errorf("%s defines %d flags, pinned at %d; a change that adds or removes a flag updates the pin and gives its reason in CHANGES.md", cmd, got, want)
		}
	}
}

// flagsDefined returns the names of the flags a command's file defines.
func flagsDefined(f *ast.File) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !flagCtors[sel.Sel.Name] {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || (x.Name != "fs" && x.Name != "flag") {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				out[name] = true
			}
		}
		return true
	})
	return out
}
