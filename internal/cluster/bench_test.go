package cluster

import (
	"runtime"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
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

// Host cost of building an 8-shard cluster, the cluster_observed workload's
// shape, before anything is simulated: each shard is a paper system (one log
// disk, one data disk, a Trail driver). On a 2-core Xeon: 4.3 ms, 4.9 MB and
// 1 129 allocations a build while every log disk came with two tables of its
// track count; 0.35 ms, 271 KB and 1 116 since.
func BenchmarkNew8Shards(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		if _, err := New(env, Config{Shards: 8, Tenants: 48}); err != nil {
			b.Fatal(err)
		}
		env.Close()
	}
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
// once, 2 after (the two copy processes), 0 since Proc records are recycled.
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

// 14 allocs/op before goroutines were reused and names built once, 7 after,
// 3 once read ops were recycled, 1 since Proc records are: the buffer it
// returns.
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

// A write-both allocates nothing: its two copy processes take recycled
// records, its op, payload, names and completion order are reused or built
// once, and Trail stages the copies in recycled images. 25 before, 2 while
// each process allocated its Proc.
func TestWriteAllocations(t *testing.T) {
	allocs := -1.0
	hotSlot(t, func(c *Cluster, p *sim.Proc) {
		allocs = testing.AllocsPerRun(500, func() {
			if err := c.Write(p, 0, 0, blockdev.ClassNormal); err != nil {
				t.Error(err)
			}
		})
	})
	if allocs > 0.5 {
		t.Errorf("a write-both allocates %v objects, want <= 0.5", allocs)
	}
}

// A read allocates the buffer it returns; its names are built once, and its
// race, with the bodies and records of its primary attempt and hedge timer
// processes, is recycled. 14 before, 7 while each read made its race and
// three closures, 3 while each process allocated its Proc.
func TestReadAllocations(t *testing.T) {
	allocs := -1.0
	hotSlot(t, func(c *Cluster, p *sim.Proc) {
		readSettled(t, c, p)
		allocs = testing.AllocsPerRun(500, func() { readSettled(t, c, p) })
	})
	if allocs > 1.5 {
		t.Errorf("a read allocates %v objects, want <= 1.5", allocs)
	}
}

// mixWorld builds a two-shard cluster with no instruments attached, whose
// heartbeats never fire, and an open-loop mix of n requests over
// cluster_observed's 48 tenants at a rate at which Trail's write-back keeps
// up: the workload's request path at a size a test can run.
func mixWorld(tb testing.TB, n int) (*sim.Env, *Cluster, []workload.MixRequest) {
	env := sim.NewEnv()
	c, err := New(env, Config{Shards: 2, Tenants: 48, HeartbeatInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	mix, err := workload.GenerateMix(workload.MixConfig{
		Tenants:           48,
		Requests:          n,
		ReadFraction:      0.3,
		Interarrival:      10 * time.Millisecond,
		ZipfS:             0.9,
		InteractiveWeight: 10,
		Seed:              1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return env, c, mix
}

// Host cost of one mix request: its process, spawned at its arrival
// instant, and its write-both or read.
func BenchmarkRunMix(b *testing.B) {
	env, c, mix := mixWorld(b, b.N)
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	c.RunMix(mix)
	env.Run()
}

// A mix allocates the buffers its read attempts return; the processes it
// spawns (a request's own, and its two copies or its primary attempt and
// hedge timer) take recycled records, and its request bodies, names and read
// races are bound once per mix or recycled. The 0.15 a request on top is for
// Trail and the ledger (staged-image record references, log records, acked
// sequence numbers), 0.09 when measured. 3.39 a request in all while each
// process allocated its Proc; 7.49 while RunMix formatted a name and built a
// closure per request and a read made its race.
func TestRunMixAllocations(t *testing.T) {
	const n = 4000
	env, c, mix := mixWorld(t, n)
	defer env.Close()
	c.RunMix(mix) // grows the free lists and the world's tables
	env.Run()
	st0 := c.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.RunMix(mix)
	env.Run()
	runtime.ReadMemStats(&after)
	st := c.Stats()
	buffers := (st.Reads - st0.Reads) + (st.Hedges - st0.Hedges) + (st.Failovers - st0.Failovers)
	got := float64(after.Mallocs-before.Mallocs) / n
	if want := float64(buffers)/n + 0.15; got > want {
		t.Errorf("a mix request allocates %.2f objects, want at most %.2f: %.2f read buffers, and 0.15",
			got, want, float64(buffers)/n)
	}
}
