package stacks_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// TestExploreTrailWindow is the tentpole acceptance check: exhaustively
// explore a 200-event window on the Trail driver — every acknowledgement,
// every media sector write, every write-back flight boundary — under a fault
// scenario (transient command timeouts on the data disk, plus latent read
// errors that heal by write), cutting power on each branch. Zero lost and
// zero torn acknowledged writes are required on every branch.
func TestExploreTrailWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive window exploration in -short mode")
	}
	st, err := stacks.TrailStack("latent=2,timeout=2,twindow=120,tdelay=2ms", 11)
	if err != nil {
		t.Fatal(err)
	}
	x := crashexplore.New(st, crashexplore.Options{Seed: 3, Window: 200})
	rep, err := x.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored < 200 {
		t.Fatalf("explored %d branches, want the full 200-event window", rep.Explored)
	}
	if rep.Failed() {
		var buf bytes.Buffer
		rep.WriteJSON(&buf) //nolint:errcheck // diagnostic output
		t.Fatalf("durability contract violated: %d lost, %d torn, %d errors (first failing event %d)\n%s",
			rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing, buf.Bytes())
	}
}

// TestExploreTrailDeterminism runs the same small trail exploration twice
// and requires byte-identical reports — the gate behind CI byte-comparison.
func TestExploreTrailDeterminism(t *testing.T) {
	render := func() []byte {
		st, err := stacks.TrailStack("", 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := crashexplore.New(st, crashexplore.Options{Seed: 5, Skip: 10, Window: 30}).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical trail explorations rendered differently:\n%s\n---\n%s", a, b)
	}
}

// TestExploreRAID5Window sweeps a bounded window on the RAID-5 stack.
func TestExploreRAID5Window(t *testing.T) {
	rep, err := crashexplore.New(stacks.RAID5Stack(), crashexplore.Options{Seed: 2, Window: 40}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored == 0 {
		t.Fatal("no branches explored")
	}
	if rep.Failed() {
		t.Fatalf("RAID-5 durability contract violated: %d lost, %d torn, %d errors (first failing event %d)",
			rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing)
	}
}

// TestExploreWALWindow sweeps a bounded window on the WAL+txn database
// stack, including its commit probes.
func TestExploreWALWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("two-level recovery per branch in -short mode")
	}
	rep, err := crashexplore.New(stacks.WALStack(), crashexplore.Options{
		Seed: 4, Window: 30, Horizon: 80 * time.Millisecond,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored == 0 {
		t.Fatal("no branches explored")
	}
	if rep.Failed() {
		t.Fatalf("WAL durability contract violated: %d lost, %d torn, %d errors (first failing event %d)",
			rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing)
	}
}

// TestByName covers the stack registry.
func TestByName(t *testing.T) {
	for _, name := range []string{"trail", "raid5", "wal"} {
		st, err := stacks.ByName(name, "", 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Build == nil || st.Recover == nil {
			t.Fatalf("%s: incomplete stack", name)
		}
	}
	if _, err := stacks.ByName("bogus", "", 0); err == nil {
		t.Fatal("bogus stack accepted")
	}
	if _, err := stacks.ByName("raid5", "latent=1", 0); err == nil {
		t.Fatal("raid5 with fault scenario accepted")
	}
	if _, err := stacks.ByName("trail", "zork=1", 0); err == nil {
		t.Fatal("malformed scenario accepted")
	}
}

// TestCrashConsistency explores the whole census of every (recipe, seed)
// pair: a power cut at every probe event of the seeded run, each recovered
// and audited. Every ACKNOWLEDGED write must survive every cut untorn.
func TestCrashConsistency(t *testing.T) {
	for _, tc := range []struct {
		stack string
		seeds int
	}{
		{"trail", 12},
		{"stddisk", 8},
		{"raid5", 8},
		{"wal", 6},
	} {
		t.Run(tc.stack, func(t *testing.T) {
			for seed := 0; seed < tc.seeds; seed++ {
				seed := uint64(seed)
				t.Run(fmt.Sprintf("trial-%02d", seed), func(t *testing.T) {
					t.Parallel()
					st, err := stacks.ByName(tc.stack, "", 0)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := crashexplore.New(st, crashexplore.Options{Seed: seed}).Run()
					if err != nil {
						t.Fatal(err)
					}
					if rep.Explored == 0 {
						t.Fatal("no branches explored")
					}
					if rep.Failed() {
						t.Fatalf("seed %d, %d branches: %d lost, %d torn, %d errors (first failing event %d)",
							seed, rep.Explored, rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing)
					}
				})
			}
		})
	}
}
