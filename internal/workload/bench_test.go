package workload

import (
	"testing"
	"time"

	"tracklog/internal/sim"
)

// The workload generators' rung of the per-layer benchmark ladder (ROADMAP):
// host cost of materializing the benchmark's cluster_observed mix, nearly
// all of that workload's set-up, and of one draw of trailsim's zipf pattern.
// Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/workload

// benchMix is bench's cluster_observed mix on rep 1's inputs at its default
// seed 1.
var benchMix = MixConfig{Tenants: 48, Requests: 60000, ReadFraction: 0.3,
	Interarrival: 400 * time.Microsecond, ZipfS: 0.9, InteractiveWeight: 10, Seed: 1<<8 + 1}

func BenchmarkGenerateMix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateMix(benchMix); err != nil {
			b.Fatal(err)
		}
	}
}

// targetSink keeps the compiler from dropping the draws it is summed from.
var targetSink int64

func BenchmarkZipfPatternNext(b *testing.B) {
	z := NewZipf()
	rng := sim.NewRand(1)
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += z.Next(rng, 10000*8, 8)
	}
	targetSink = sum
}
