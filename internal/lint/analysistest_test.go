package lint

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Fixture testing in the style of golang.org/x/tools/go/analysis/analysistest:
// a fixture package under testdata/src/... annotates the lines expected to
// be flagged with
//
//	// want "regexp"
//
// (several quoted regexps for several findings on one line). RunFixture
// loads the package with the production loader — so fixtures may import
// real module packages, and their import paths are normalized exactly like
// the real tree — runs the analyzers, and reports every mismatch in either
// direction.

var wantRE = regexp.MustCompile("// want ((?:[\"`][^\"`]*[\"`]\\s*)+)$")
var wantArgRE = regexp.MustCompile("[\"`]([^\"`]*)[\"`]")

// RunFixture analyzes the fixture package rooted at dir (relative to the
// caller's working directory, e.g. "testdata/src/tracklog/internal/trail")
// with the given analyzers and compares diagnostics against // want
// annotations.
func RunFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load("", "./"+strings.TrimPrefix(dir, "./"))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", dir, terr)
		}
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
						wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], arg[1])
					}
				}
			}
		}
	}

	got := make(map[key][]Diagnostic)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}

	keys := make(map[key]bool)
	for k := range wants {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	ordered := make([]key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].file != ordered[j].file {
			return ordered[i].file < ordered[j].file
		}
		return ordered[i].line < ordered[j].line
	})

	for _, k := range ordered {
		ws, ds := wants[k], got[k]
		matched := make([]bool, len(ds))
		for _, w := range ws {
			re, err := regexp.Compile(w)
			if err != nil {
				t.Errorf("%s:%d: bad want regexp %q: %v", k.file, k.line, w, err)
				continue
			}
			found := false
			for i, d := range ds {
				if !matched[i] && re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: expected diagnostic matching %q, got %s", k.file, k.line, w, describe(ds))
			}
		}
		for i, d := range ds {
			if !matched[i] {
				t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", k.file, k.line, d.Message, d.Analyzer)
			}
		}
	}
}

func describe(ds []Diagnostic) string {
	if len(ds) == 0 {
		return "no diagnostics"
	}
	msgs := make([]string, len(ds))
	for i, d := range ds {
		msgs[i] = fmt.Sprintf("%q", d.Message)
	}
	return strings.Join(msgs, ", ")
}
