package cluster

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// The cluster router's rungs of the per-layer benchmark ladder (ROADMAP):
// host cost of one acknowledged write-both, and of one read, to a slot that
// is written again and again, the zipf-head case of the benchmark's
// cluster_observed workload. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/cluster
//
// The allocation guards below pin the same two requests at their real counts
// (CI runs them without -race).

// hotSlot builds a two-shard cluster whose heartbeats never fire inside a
// measurement, writes tenant 0's block 0 once, and runs op as client's body.
func hotSlot(tb testing.TB, op func(c *Cluster, p *sim.Proc)) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 2, Tenants: 2, WriteSize: 4096, HeartbeatInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) {
		if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
			tb.Error(err)
			return
		}
		op(c, p)
	})
	env.Run()
}

// readSettled reads the hot slot and waits out the hedge timer, so the next
// read starts with the previous one's processes gone.
func readSettled(tb testing.TB, c *Cluster, p *sim.Proc) {
	if _, err := c.Read(p, 0, 0, blockdev.ClassNormal); err != nil {
		tb.Error(err)
	}
	p.Sleep(c.cfg.HedgeAfter)
}

// 25 allocs/op before goroutines and write ops were reused and names built
// once, 4 after.
func BenchmarkWriteHotSlot(b *testing.B) {
	b.SetBytes(4096)
	b.ReportAllocs()
	hotSlot(b, func(c *Cluster, p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// 14 allocs/op before goroutines were reused and names built once, 7 after.
func BenchmarkRead(b *testing.B) {
	b.SetBytes(4096)
	b.ReportAllocs()
	hotSlot(b, func(c *Cluster, p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readSettled(b, c, p)
		}
	})
}

// A write-both allocates its two staged chunks, the two copy processes and
// a share of a media slab; its op, payload, names and completion order are
// reused or built once. 25 before.
func TestWriteAllocations(t *testing.T) {
	allocs := -1.0
	hotSlot(t, func(c *Cluster, p *sim.Proc) {
		allocs = testing.AllocsPerRun(500, func() {
			if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
				t.Error(err)
			}
		})
	})
	if allocs > 4.5 {
		t.Errorf("a write-both allocates %v objects, want <= 4.5", allocs)
	}
}

// A read allocates its primary attempt and hedge timer processes, the buffer
// it returns, and its race with the three closures that share it; its names
// are built once and its completion event lives in the race. 14 before.
func TestReadAllocations(t *testing.T) {
	allocs := -1.0
	hotSlot(t, func(c *Cluster, p *sim.Proc) {
		readSettled(t, c, p)
		allocs = testing.AllocsPerRun(500, func() { readSettled(t, c, p) })
	})
	if allocs > 7.5 {
		t.Errorf("a read allocates %v objects, want <= 7.5", allocs)
	}
}
