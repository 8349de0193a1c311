package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"tracklog"
	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/cluster"
	"tracklog/internal/disk"
	"tracklog/internal/kvdb"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/stddisk"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
	"tracklog/internal/trail"
	"tracklog/internal/wal"
)

// A probe measures one layer alone, through its public surface, at a fixed
// iteration count. prep builds the probe's world outside the clock and
// returns the timed body, which reports how many units of work it did, and
// a teardown. ns, allocs and bytes name the per-unit metrics the probe
// reports ("" leaves one out).
type probe struct {
	name              string
	iters             int
	prep              func(n int) (run func() int64, done func())
	ns, allocs, bytes string
}

const probeTrials = 3

// runProbes runs the whole ladder and returns the median of each metric.
func runProbes(spans *spanLog, div int) map[string]float64 {
	out := make(map[string]float64)
	for _, pb := range probes {
		n := pb.iters / div
		if n < 64 {
			n = 64
		}
		var ns, allocs, bytes []float64
		for t := 0; t < probeTrials; t++ {
			run, done := pb.prep(n)
			runtime.GC()
			id := spans.begin(0, "", t, "probe."+pb.name)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			units := float64(run())
			wall := time.Since(t0)
			runtime.ReadMemStats(&m1)
			spans.end(id)
			done()
			ns = append(ns, float64(wall.Nanoseconds())/units)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/units)
			bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/units)
		}
		for _, m := range []struct {
			name string
			v    []float64
		}{{pb.ns, ns}, {pb.allocs, allocs}, {pb.bytes, bytes}} {
			if m.name != "" {
				out[m.name] = median(m.v)
			}
		}
	}
	return out
}

// simProbe builds a world on a fresh kernel, times env.Run, and counts the
// work from the kernel's own counters.
func simProbe(build func(env *sim.Env, n int), count func(d sim.KernelStats, n int) int64) func(n int) (func() int64, func()) {
	return func(n int) (func() int64, func()) {
		env := sim.NewEnv()
		build(env, n)
		return func() int64 {
			base := env.KernelStats()
			env.Run()
			return count(env.KernelStats().Delta(base), n)
		}, env.Close
	}
}

func events(d sim.KernelStats, _ int) int64 { return d.EventsDispatched }

// devProbe times n calls of op, split evenly over clients processes, against
// a device built on a fresh kernel. Its unit of work is the call.
func devProbe(clients int, build func(env *sim.Env) func(p *sim.Proc, i int)) func(n int) (func() int64, func()) {
	return simProbe(func(env *sim.Env, n int) {
		op := build(env)
		for c := 0; c < clients; c++ {
			env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
				for i := 0; i < n/clients; i++ {
					op(p, c*(n/clients)+i)
				}
			})
		}
	}, func(_ sim.KernelStats, n int) int64 { return int64(n / clients * clients) })
}

// probeLBA spreads probe accesses over a drive deterministically.
func probeLBA(i int, sectors int64) int64 {
	x := uint64(i+1) * 0x9E3779B97F4A7C15
	return int64(x%uint64(sectors/blockSectors-1)) * blockSectors
}

// plain is a probe body with no simulated world: n calls of op.
func plain(op func(i int)) func(n int) (func() int64, func()) {
	return func(n int) (func() int64, func()) {
		return func() int64 {
			for i := 0; i < n; i++ {
				op(i)
			}
			return int64(n)
		}, func() {}
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: probe: %v", err))
	}
}

var sink int

var probes = []probe{
	{name: "sim.sleep", iters: 100000, ns: "sim.sleep_ns_per_event", allocs: "sim.sleep_allocs_per_event",
		prep: simProbe(func(env *sim.Env, n int) {
			env.Go("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(time.Microsecond)
				}
			})
		}, events)},
	{name: "sim.handoff", iters: 50000, ns: "sim.handoff_ns_per_wake",
		prep: simProbe(func(env *sim.Env, n int) {
			ping, pong := sim.NewEvent(env), sim.NewEvent(env)
			env.Go("a", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ping.Trigger()
					pong.Wait(p)
					pong = sim.NewEvent(env)
				}
			})
			env.Go("b", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					ping.Wait(p)
					ping = sim.NewEvent(env)
					pong.Trigger()
				}
			})
		}, func(d sim.KernelStats, _ int) int64 { return d.Wakeups })},
	{name: "sim.spawn", iters: 30000, ns: "sim.spawn_ns_per_proc", bytes: "sim.spawn_bytes_per_proc",
		prep: func(n int) (func() int64, func()) {
			env := sim.NewEnv()
			return func() int64 {
				for i := 0; i < n; i++ {
					env.Go("p", func(*sim.Proc) {})
					if i%1024 == 1023 {
						env.Run()
					}
				}
				env.Run()
				return int64(n)
			}, env.Close
		}},
	{name: "sim.queue_depth64k", iters: 1 << 16, ns: "sim.queue_depth64k_ns_per_event",
		prep: func(sleepers int) (func() int64, func()) {
			// The sleepers are parked in the event queue before the clock
			// starts; each wakes and sleeps once more at scattered instants.
			env := sim.NewEnv()
			for i := 0; i < sleepers; i++ {
				gap := time.Millisecond + time.Duration(probeLBA(i, 1<<20))
				env.Go("s", func(p *sim.Proc) {
					p.Sleep(gap)
					p.Sleep(gap)
				})
			}
			env.RunUntil(sim.Time(time.Millisecond / 2))
			return func() int64 {
				base := env.KernelStats()
				env.Run()
				return env.KernelStats().Delta(base).EventsDispatched
			}, env.Close
		}},
	{name: "disk.access", iters: 8000, ns: "disk.access_ns_per_op", allocs: "disk.access_allocs_per_op",
		prep: devProbe(1, func(env *sim.Env) func(*sim.Proc, int) {
			d := disk.New(env, disk.WDCaviar())
			size := d.Geom().TotalSectors()
			return func(p *sim.Proc, i int) {
				must(d.Access(p, &disk.Request{LBA: probeLBA(i, size), Count: blockSectors}).Err)
			}
		})},
	{name: "sched.do_depth1", iters: 6400, ns: "sched.do_depth1_ns_per_op", prep: schedProbe(1)},
	{name: "sched.do_depth32", iters: 6400, ns: "sched.do_depth32_ns_per_op", prep: schedProbe(32)},
	{name: "stddisk.write", iters: 4000, ns: "stddisk.write_ns_per_op",
		prep: devProbe(1, func(env *sim.Env) func(*sim.Proc, int) {
			dev := stddisk.New(env, disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3}, sched.LOOK)
			buf := make([]byte, blockBytes)
			return func(p *sim.Proc, i int) {
				must(dev.Write(p, probeLBA(i, dev.Sectors()), blockSectors, buf))
			}
		})},
	{name: "trail.build_record", iters: 20000, ns: "trail.build_record_ns_per_op", allocs: "trail.build_record_allocs_per_op",
		prep: func(n int) (func() int64, func()) {
			data := make([]byte, blockBytes)
			for i := range data {
				data[i] = byte(i)
			}
			return plain(func(i int) {
				h := &trail.RecordHeader{Epoch: 1, Seq: uint64(i), HeaderLBA: int64(i), PrevSect: -1,
					Blocks: make([]trail.BlockRef, blockSectors)}
				for b := range h.Blocks {
					h.Blocks[b] = trail.BlockRef{Dev: blockdev.DevID{Major: 8}, DataLBA: int64(i*blockSectors + b)}
				}
				img, err := trail.BuildRecord(h, data)
				must(err)
				back, err := trail.DecodeRecordHeader(img)
				must(err)
				out, err := trail.ExtractData(back, img)
				must(err)
				sink += len(out)
			})(n)
		}},
	{name: "trail.write_drained", iters: 1500, ns: "trail.write_drained_ns_per_op", allocs: "trail.write_drained_allocs_per_op",
		prep: func(n int) (func() int64, func()) {
			// One sparse writer: every write-back finishes inside the gap,
			// so staging stays empty and no cost depends on a backlog.
			sys, err := tracklog.NewSystem(tracklog.SystemConfig{DataDisks: 1})
			must(err)
			dev := sys.Trail.Dev(0)
			buf := make([]byte, blockBytes)
			sys.Go("writer", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					must(dev.Write(p, probeLBA(i, dev.Sectors()), blockSectors, buf))
					p.Sleep(40 * time.Millisecond)
				}
			})
			return func() int64 { sys.Run(); return int64(n) }, sys.Close
		}},
	{name: "wal.append_commit", iters: 60000, ns: "wal.append_commit_ns_per_op",
		prep: devProbe(1, func(env *sim.Env) func(*sim.Proc, int) {
			dev := disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3})
			l, err := wal.New(env, wal.Config{Dev: dev, Sectors: dev.Sectors(), Mode: wal.SyncEveryCommit})
			must(err)
			rec := make([]byte, 120)
			return func(p *sim.Proc, _ int) {
				lsn, err := l.Append(p, rec)
				must(err)
				must(l.Commit(p, lsn))
			}
		})},
	{name: "bufcache.get_hit", iters: 3000000, ns: "bufcache.get_hit_ns_per_op",
		prep: devProbe(1, func(env *sim.Env) func(*sim.Proc, int) {
			c := bufcache.New(disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3}), 64)
			return func(p *sim.Proc, i int) {
				pg, err := c.Get(p, int64(i&31))
				must(err)
				c.Release(pg)
			}
		})},
	{name: "kvdb.put", iters: 4000, ns: "kvdb.put_ns_per_op", allocs: "kvdb.put_allocs_per_op", prep: kvdbProbe(false)},
	{name: "kvdb.get", iters: 4000, ns: "kvdb.get_ns_per_op", prep: kvdbProbe(true)},
	{name: "cluster.write", iters: 1500, ns: "cluster.write_ns_per_op",
		prep: devProbe(1, func(env *sim.Env) func(*sim.Proc, int) {
			c, err := cluster.New(env, cluster.Config{Shards: 2, Tenants: 8})
			must(err)
			return func(p *sim.Proc, i int) { must(c.Write(p, i%8, i/8%2, blockdev.ClassNormal)) }
		})},

	{name: "trace.emit_nil", iters: 20000000, ns: "trace.emit_nil_ns", prep: emitProbe(nil)},
	{name: "trace.emit", iters: 5000000, ns: "trace.emit_ns", prep: emitProbe(trace.New(1 << 16))},
	{name: "span.request_nil", iters: 10000000, ns: "span.request_nil_ns", prep: spanProbe(nil)},
	{name: "span.request", iters: 300000, ns: "span.request_ns", prep: spanProbe(span.NewRecorder(1 << 16))},
	{name: "timeline.lane_enter", iters: 8000000, ns: "timeline.lane_enter_ns",
		prep: func(n int) (func() int64, func()) {
			lane := timeline.New(10*time.Millisecond).Lane("probe", "lane", []string{"idle", "busy"})
			return plain(func(i int) { lane.Enter(i&1, int64(i)*1000) })(n)
		}},
	{name: "timeline.meter_set", iters: 8000000, ns: "timeline.meter_set_ns",
		prep: func(n int) (func() int64, func()) {
			m := timeline.New(10*time.Millisecond).Meter("probe", "meter", "level")
			return plain(func(i int) { m.Set(float64(i&7), int64(i)*1000) })(n)
		}},
	{name: "telemetry.counter_add", iters: 30000000, ns: "telemetry.counter_add_ns",
		prep: func(n int) (func() int64, func()) {
			c := telemetry.NewRegistry().Counter("probe_total", "probe")
			return plain(func(int) { c.Add(1) })(n)
		}},
	{name: "telemetry.hist_observe", iters: 10000000, ns: "telemetry.hist_observe_ns",
		prep: func(n int) (func() int64, func()) {
			h := telemetry.NewRegistry().Histogram("probe_hist", "probe", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
			return plain(func(i int) { h.Observe(float64(i & 1023)) })(n)
		}},
}

func schedProbe(depth int) func(n int) (func() int64, func()) {
	return devProbe(depth, func(env *sim.Env) func(*sim.Proc, int) {
		d := disk.New(env, disk.WDCaviar())
		q := sched.New(env, d, sched.LOOK)
		size := d.Geom().TotalSectors()
		return func(p *sim.Proc, i int) {
			must(q.Do(p, &sched.Request{LBA: probeLBA(i, size), Count: blockSectors}).Err)
		}
	})
}

// kvdbProbe times Put of n fresh keys, or with get set, Get of n keys put
// during preparation, on a store whose device takes no simulated time.
func kvdbProbe(get bool) func(n int) (func() int64, func()) {
	return func(n int) (func() int64, func()) {
		env := sim.NewEnv()
		var tree *kvdb.Tree
		key := func(i int) []byte {
			k := make([]byte, 16)
			binary.BigEndian.PutUint64(k, uint64(i+1)*0x9E3779B97F4A7C15)
			return k
		}
		val := make([]byte, 100)
		phase := func(name string, op func(p *sim.Proc, i int)) {
			env.Go(name, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					op(p, i)
				}
			})
			env.Run()
		}
		put := func(p *sim.Proc, i int) { must(tree.Put(p, key(i), val, len(val))) }
		env.Go("open", func(p *sim.Proc) {
			st, err := kvdb.Open(p, disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3}), 4096)
			must(err)
			tree, err = st.CreateTree(p)
			must(err)
		})
		env.Run()
		timed := put
		if get {
			phase("fill", put)
			timed = func(p *sim.Proc, i int) {
				v, err := tree.Get(p, key(i))
				must(err)
				sink += len(v)
			}
		}
		return func() int64 { phase("probe", timed); return int64(n) }, env.Close
	}
}

func emitProbe(tr *trace.Tracer) func(n int) (func() int64, func()) {
	return plain(func(i int) {
		tr.Emit(trace.Event{At: int64(i), Kind: trace.KSched, Track: "probe"})
	})
}

// spanProbe records one request the way a driver does: open, two child
// phases, finish.
func spanProbe(rec *span.Recorder) func(n int) (func() int64, func()) {
	return plain(func(i int) {
		at := int64(i) * 1000
		rq := rec.Start(span.KWrite, "probe", "dev0", int64(i), blockSectors, at)
		rq.Child(span.PQueue, at, at+100)
		rq.Child(span.PTransfer, at+100, at+400)
		rq.Finish(at+400, false)
	})
}
