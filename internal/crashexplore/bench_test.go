package crashexplore_test

import (
	"testing"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
)

// The explorer's rung of the per-layer benchmark ladder (ROADMAP item 6): host
// cost of one forked branch of the trail stack at seed 1 (clone the drives of
// the paused census, recover the clones, audit), at the first probe index and
// at 80 % of the census: 0.13-0.15 and 0.54-0.59 ms on a 2-core Xeon. A
// branch replays no workload, so its cost is recovery's: the later branch
// costs more because recovery replays a fuller log. Run with
//
//	go test -run '^$' -bench Branch -benchmem ./internal/crashexplore
func BenchmarkBranch(b *testing.B) {
	st, err := stacks.TrailStack("", 0)
	if err != nil {
		b.Fatal(err)
	}
	x := crashexplore.New(st.Stack, crashexplore.Options{Seed: 1})
	census, err := x.Run()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		index int64
	}{{"skip=0", 0}, {"skip=80%", census.TotalProbes * 8 / 10}} {
		b.Run(bc.name, func(b *testing.B) {
			fork, stop, err := x.ForkAt(bc.index)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if br := fork(); br.Failed() {
					b.Fatalf("branch at %d failed: %+v", bc.index, br)
				}
			}
		})
	}
}
