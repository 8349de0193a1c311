package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestDeterminismMapRangeFixture(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/sched", Determinism)
}

func TestDeterminismSchedulingSinkFixture(t *testing.T) {
	// Kernel scheduling calls inside a map-range body: the shape of
	// txn.releaseAll before it released in key order.
	RunFixture(t, "testdata/src/tracklog/internal/txn", Determinism)
}

func TestDeterminismSelectionFixture(t *testing.T) {
	// Map ranges that keep their first match, and the existence tests and
	// sorted selections that stay legal.
	RunFixture(t, "testdata/src/tracklog/internal/pick", Determinism)
}

func TestDeterminismRandExemption(t *testing.T) {
	// rand.go inside (normalized) tracklog/internal/sim is exempt; every
	// other file in the same package is not.
	RunFixture(t, "testdata/src/tracklog/internal/sim", Determinism)
}

// TestFindingsDoNotDependOnLoadedPackages: no pass reads beyond its own
// package, so a package checked alone and checked inside a tree that
// contains it gets the same findings.
func TestFindingsDoNotDependOnLoadedPackages(t *testing.T) {
	const dir = "testdata/src/tracklog/internal/pick"
	findings := func(patterns ...string) string {
		t.Helper()
		pkgs, err := Load("", patterns...)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := Run(pkgs, All())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range diags {
			if filepath.Base(filepath.Dir(d.Pos.Filename)) == filepath.Base(dir) {
				fmt.Fprintln(&b, d)
			}
		}
		return b.String()
	}
	alone := findings("./" + dir)
	if alone == "" {
		t.Fatal("the selection fixture has no findings to compare")
	}
	if inTree := findings("./testdata/src/tracklog/internal/..."); inTree != alone {
		t.Errorf("findings differ with the other fixtures loaded:\nalone:\n%s\nin the tree:\n%s", alone, inTree)
	}
}
