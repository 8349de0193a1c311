package lint

import "testing"

func TestVirtualTimeFixture(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/trail", VirtualTime)
}

func TestVirtualTimeOutOfScope(t *testing.T) {
	// A package outside the simulated-path set is never flagged, whatever
	// it does with the wall clock.
	pkgs, err := Load("", "./testdata/src/tracklog/internal/trail")
	if err != nil {
		t.Fatal(err)
	}
	pkgs[0].ImportPath = "github.com/elsewhere/pkg"
	diags, err := Run(pkgs, []*Analyzer{VirtualTime})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics: %v", len(diags), diags)
	}
}
