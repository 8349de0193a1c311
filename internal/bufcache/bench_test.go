package bufcache

import (
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// The page cache's rung of the per-layer benchmark ladder (ROADMAP): a Get
// and Release of a resident page, the call every B+tree node visit makes.
// Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/bufcache
func BenchmarkGetHit(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	c := New(disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3}), 64)
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			pg, err := c.Get(p, int64(i&31))
			if err != nil {
				b.Error(err)
				return
			}
			c.Release(pg)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
