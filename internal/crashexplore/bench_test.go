package crashexplore_test

import (
	"testing"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// The explorer's rung of the per-layer benchmark ladder (ROADMAP item 6): host
// cost of one branch of the trail stack at seed 1 (rebuild the world, replay
// the workload to the branch's event, cut power, recover, audit), at the
// first probe index and at 80 % of the census. Today a branch replays the
// world from time zero, so the later branch costs more: on a 2-core Xeon,
// 0.29 and 1.46 ms (0.55 and 1.94 ms while every Trail world built tables
// the size of its log disk and recovery allocated an image per track read).
// Run with
//
//	go test -run '^$' -bench Branch -benchmem ./internal/crashexplore
func BenchmarkBranch(b *testing.B) {
	st, err := stacks.TrailStack("", 0)
	if err != nil {
		b.Fatal(err)
	}
	// eventAt explores the one-index window at skip to learn its event.
	eventAt := func(skip int64) (crashexplore.EventInfo, int64) {
		rep, err := crashexplore.New(st.Stack, crashexplore.Options{Seed: 1, Skip: skip, Window: 1}).Run()
		if err != nil || len(rep.Branches) != 1 {
			b.Fatalf("window at %d: %v, %d branches", skip, err, len(rep.Branches))
		}
		return rep.Branches[0].Event, rep.TotalProbes
	}
	first, census := eventAt(0)
	late, _ := eventAt(census * 8 / 10)
	x := crashexplore.New(st.Stack, crashexplore.Options{Seed: 1})
	for _, bc := range []struct {
		name string
		ev   crashexplore.EventInfo
	}{{"skip=0", first}, {"skip=80%", late}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if br := x.RunBranch(bc.ev); br.Failed() {
					b.Fatalf("branch at %d failed: %+v", bc.ev.Index, br)
				}
			}
		})
	}
}
