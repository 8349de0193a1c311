package crashexplore_test

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// memStack is a synthetic two-slot stack over an in-memory "platter" (the
// durable map survives the power cut, everything else dies). It has no
// drives to clone: its recovery only reads the map, so a branch reads it as
// the census left it at the cut. Each write
// emits a media-write probe just before persisting and an ack probe just
// after, so the probe schedule is exactly known — which makes the expected
// minimal failing index of a broken recovery computable by hand.
func memStack(durable map[int]int, broken bool) crashexplore.Stack {
	return crashexplore.Stack{
		Slots: 2,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, []*disk.Disk, error) {
			for k := range durable {
				delete(durable, k) // fresh world, blank platter
			}
			return func(p *sim.Proc, slot, version int) error {
				p.Sleep(200 * time.Microsecond)
				env.EmitProbe(p, sim.ProbeMediaWrite, "mem", int64(slot), 1)
				durable[slot] = version
				env.EmitProbe(p, sim.ProbeAck, "mem", int64(slot), 1)
				return nil
			}, nil, nil
		},
		Recover: func(env2 *sim.Env, _ []*disk.Disk) (crashexplore.ReadFunc, error) {
			return func(p *sim.Proc, slot int) (int, bool) {
				v := durable[slot]
				if broken && v > 0 {
					return v - 1, true // recovery "loses" the newest version
				}
				return v, true
			}, nil
		},
	}
}

func memOptions() crashexplore.Options {
	return crashexplore.Options{
		Seed:    7,
		Window:  12,
		Horizon: 40 * time.Millisecond,
	}
}

// TestExploreMemStackHolds explores every branch of the healthy synthetic
// stack: the durability contract must hold at every cut point.
func TestExploreMemStackHolds(t *testing.T) {
	durable := map[int]int{}
	rep, err := crashexplore.New(memStack(durable, false), memOptions()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored != 12 {
		t.Fatalf("explored %d branches, want 12", rep.Explored)
	}
	if rep.Failed() {
		t.Fatalf("healthy stack failed exploration: %+v", rep)
	}
	if rep.FirstFailing != -1 {
		t.Fatalf("FirstFailing = %d, want -1", rep.FirstFailing)
	}
}

// TestBrokenRecoveryExactIndex plants a recovery bug (the newest persisted
// version of every slot is dropped) and checks the explorer pins the minimal
// failing event: probe 0 is slot 0's media write (nothing persisted yet,
// cut survives), probe 1 its ack (persisted but not yet acknowledged, cut
// survives), and probe 2 — slot 1's media write, by which time slot 0's
// write has been acknowledged — is the first cut the broken recovery loses.
func TestBrokenRecoveryExactIndex(t *testing.T) {
	durable := map[int]int{}
	rep, err := crashexplore.New(memStack(durable, true), memOptions()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("broken recovery passed exploration")
	}
	if rep.FirstFailing != 2 {
		t.Fatalf("FirstFailing = %d, want exactly 2", rep.FirstFailing)
	}
	if rep.LostBranches == 0 {
		t.Fatal("no lost branches recorded")
	}
	// The failing branch names the lost slot and versions.
	var b *crashexplore.Branch
	for i := range rep.Branches {
		if rep.Branches[i].Event.Index == 2 {
			b = &rep.Branches[i]
		}
	}
	if b == nil || len(b.Failures) == 0 {
		t.Fatalf("branch at index 2 has no failure detail: %+v", b)
	}
	f := b.Failures[0]
	if f.Slot != 0 || f.Acked != 1 || f.Found != 0 || f.Torn {
		t.Fatalf("failure detail = %+v, want slot 0 acked 1 found 0", f)
	}
}

// TestExploreDeterminism runs the same exploration twice and requires
// byte-identical reports.
func TestExploreDeterminism(t *testing.T) {
	render := func() []byte {
		durable := map[int]int{}
		rep, err := crashexplore.New(memStack(durable, false), memOptions()).Run()
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
		t.Fatalf("two identical explorations rendered differently:\n%s\n---\n%s", a, b)
	}
}

// TestParseKind round-trips every probe-kind name.
func TestParseKind(t *testing.T) {
	for k := sim.ProbeAck; k <= sim.ProbeCommit; k++ {
		got, err := crashexplore.ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := crashexplore.ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestKindsFilter restricts branching to acks only.
func TestKindsFilter(t *testing.T) {
	durable := map[int]int{}
	opts := memOptions()
	opts.Kinds = []sim.ProbeKind{sim.ProbeAck}
	rep, err := crashexplore.New(memStack(durable, false), opts).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explored == 0 {
		t.Fatal("no branches explored")
	}
	for _, b := range rep.Branches {
		if b.Event.Kind != "ack" {
			t.Fatalf("branch on kind %q with ack-only filter", b.Event.Kind)
		}
	}
}
