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

func TestByName(t *testing.T) {
	cases := []struct {
		name   string
		arg    string
		want   []string // expected analyzer names in order (when errSub is empty)
		errSub string   // non-empty: the error must contain this
	}{
		{name: "subset keeps request order", arg: "virtualtime,nilguard", want: []string{"virtualtime", "nilguard"}},
		{name: "whitespace tolerated", arg: " determinism , errtaxonomy ", want: []string{"determinism", "errtaxonomy"}},
		{name: "single analyzer", arg: "nilguard", want: []string{"nilguard"}},
		{name: "empty list", arg: "", errSub: "empty analyzer list"},
		{name: "only separators", arg: " , ,", errSub: "empty analyzer list"},
		{name: "unknown analyzer", arg: "nosuch", errSub: `unknown analyzer "nosuch"`},
		{name: "duplicate analyzer", arg: "virtualtime,determinism,virtualtime", errSub: `duplicate analyzer "virtualtime"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as, err := ByName(tc.arg)
			if tc.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("ByName(%q) err = %v, want containing %q", tc.arg, err, tc.errSub)
				}
				return
			}
			if err != nil {
				t.Fatalf("ByName(%q): %v", tc.arg, err)
			}
			got := make([]string, len(as))
			for i, a := range as {
				got[i] = a.Name
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Fatalf("ByName(%q) = %v, want %v", tc.arg, got, tc.want)
			}
		})
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
// tree has zero findings. If this fails, fix the regression: there is no
// suppression directive.
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Fatalf("%s: %v", p.ImportPath, terr)
		}
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
