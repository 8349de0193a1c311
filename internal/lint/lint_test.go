package lint

import (
	"strings"
	"testing"
)

func TestNormalizePath(t *testing.T) {
	cases := map[string]string{
		"tracklog/internal/trail":                                     "tracklog/internal/trail",
		"tracklog/internal/lint/testdata/src/tracklog/internal/trail": "tracklog/internal/trail",
		"a/testdata/src/b/testdata/src/c":                             "c",
		"tracklog/cmd/trailsim":                                       "tracklog/cmd/trailsim",
	}
	for in, want := range cases {
		if got := NormalizePath(in); got != want {
			t.Errorf("NormalizePath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunOrdersDiagnostics(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/tracklog/internal/trail")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) < 2 {
		t.Fatalf("expected several diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics not ordered: %v before %v", a, b)
		}
	}
}

// TestRealTreeIsClean is the enforced invariant itself: the production
// tree has zero findings, and so has bench/ under the ownership rules
// (bench/ measures host cost, so the wall clock is its to read). If this
// fails, fix the regression: there is no suppression directive.
func TestRealTreeIsClean(t *testing.T) {
	var module, bench []*Package
	for _, p := range loadTree(t) {
		for _, terr := range p.TypeErrors {
			t.Fatalf("%s: %v", p.ImportPath, terr)
		}
		if strings.HasPrefix(p.ImportPath, "tracklog/bench") {
			bench = append(bench, p)
		} else {
			module = append(module, p)
		}
	}
	for _, run := range []struct {
		pkgs      []*Package
		analyzers []*Analyzer
	}{{module, All()}, {bench, []*Analyzer{Ownership}}} {
		diags, err := Run(run.pkgs, run.analyzers)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
