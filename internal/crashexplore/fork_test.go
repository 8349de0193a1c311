package crashexplore_test

import (
	"reflect"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/sim"
)

// TestForkEqualsReplay holds the explorer's forked branches to the reference
// they replaced, a branch replayed from time zero (Explorer.Replay): the first,
// middle and last candidate of every stack's census, trail's also under the
// CI fault scenario, and a cut between two sectors of one media transfer.
// Both ways, the drives must hold the same media, and their fault plans the
// same counters, at the cut and after recovery, and the Branch must be the
// same. The forks come from one census
// that forks every candidate in turn, as the explorer does, so a clone that
// shares state with the census corrupts the branches after it.
func TestForkEqualsReplay(t *testing.T) {
	for _, tc := range []struct {
		name, stack, faults string
		faultSeed           uint64
		opts                crashexplore.Options
	}{
		{"trail", "trail", "", 0, crashexplore.Options{Seed: 1}},
		{"trail-faults", "trail", "latent=2,timeout=2,twindow=120,tdelay=2ms", 11, crashexplore.Options{Seed: 3}},
		{"stddisk", "stddisk", "", 0, crashexplore.Options{Seed: 1}},
		{"raid5", "raid5", "", 0, crashexplore.Options{Seed: 2}},
		{"wal", "wal", "", 0, crashexplore.Options{Seed: 4, Horizon: 80 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := stacks.ByName(tc.stack, tc.faults, tc.faultSeed)
			if err != nil {
				t.Fatal(err)
			}
			// states gets, per recovery, every drive's state at the cut and
			// then after recovery.
			var states [][]driveState
			recoverOn := st.Recover
			st.Recover = func(env *sim.Env, drives []*disk.Disk) (crashexplore.ReadFunc, error) {
				s := stateOf(drives)
				read, err := recoverOn(env, drives)
				states = append(states, append(s, stateOf(drives)...))
				return read, err
			}
			x := crashexplore.New(st.Stack, tc.opts)
			rep, err := x.Run()
			if err != nil {
				t.Fatal(err)
			}
			forked, n := states, len(rep.Branches)
			if n < 3 || len(forked) != n {
				t.Fatalf("%d branches, %d recoveries", n, len(forked))
			}
			picks := []int{0, n / 2, n - 1}
			if tc.stack == "trail" {
				picks = append(picks, midTransfer(t, rep.Branches))
			}
			for _, i := range picks {
				states = nil
				want := rep.Branches[i]
				got, err := x.Replay(want.Event.Index)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("event %d: replayed branch %+v, forked %+v", want.Event.Index, got, want)
				}
				if len(states) != 1 || !reflect.DeepEqual(states[0], forked[i]) {
					t.Errorf("event %d: replayed drives' states %+v, forked %+v", want.Event.Index, states, forked[i])
				}
			}
		})
	}
}

// driveState is what a branch's recovery starts from and leaves behind on
// one drive: its media and its fault plan's counters.
type driveState struct {
	Digest uint64
	Plan   fault.Stats
}

func stateOf(drives []*disk.Disk) []driveState {
	var out []driveState
	for _, d := range drives {
		s := driveState{Digest: d.Digest()}
		if pl, ok := d.Injector().(*fault.Plan); ok {
			s.Plan = pl.Stats()
		}
		out = append(out, s)
	}
	return out
}

// midTransfer returns the index of the first branch cut between two sectors
// of one media transfer: a media write followed, at the next probe, by one to
// the next sector of the same drive.
func midTransfer(t *testing.T, bs []crashexplore.Branch) int {
	t.Helper()
	for i := 0; i+1 < len(bs); i++ {
		a, b := bs[i].Event, bs[i+1].Event
		if a.Kind == "media-write" && b.Kind == a.Kind && b.Index == a.Index+1 && b.Dev == a.Dev && b.LBA == a.LBA+1 {
			return i
		}
	}
	t.Fatal("no cut inside a media transfer")
	return -1
}
