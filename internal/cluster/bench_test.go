package cluster

import (
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// The cluster router's rung of the per-layer benchmark ladder (ROADMAP):
// host cost of one acknowledged write-both to a slot that is written again
// and again, the zipf-head case of the benchmark's cluster_observed workload —
// payload generation, two shard writes, the ack ledger. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/cluster

func BenchmarkWriteHotSlot(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 2, Tenants: 2, WriteSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
