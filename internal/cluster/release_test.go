package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/tpcc"
	"tracklog/internal/trace"
	"tracklog/internal/wal"
)

// A bundle kept after its world closes does not keep the world: the
// registry's func-backed series let go of the components they read when the
// environment bound by SetMetrics closes, and the tracer, recorder and
// timeline hold plain values. Each case builds a world observed by the full
// bundle, runs a few operations, closes it and returns nothing but the
// bundle; a finalizer on one of its drives must then run within a few
// collections.
func TestClosedWorldIsCollectable(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build runs a closed, observed world and puts fin on one of its
		// drives.
		build func(t *testing.T, in rig.Instruments, fin func(*disk.Disk))
	}{
		{"cluster", func(t *testing.T, in rig.Instruments, fin func(*disk.Disk)) {
			env := sim.NewEnv()
			c, err := New(env, Config{Shards: 2, Tenants: 8})
			if err != nil {
				t.Fatal(err)
			}
			in.AttachKernel(env)
			c.RegisterMetrics(in.Registry)
			c.SetTimeline(in.Timeline)
			c.SetRecorder(in.Recorder)
			env.Go("client", func(p *sim.Proc) {
				for tn := 0; tn < 8; tn++ {
					if err := c.Write(p, tn, 0, blockdev.ClassNormal); err != nil {
						t.Errorf("write tenant %d: %v", tn, err)
					}
				}
			})
			env.Run()
			env.Close()
			runtime.SetFinalizer(c.shards[0].data, fin)
		}},
		{"trail-rig", func(t *testing.T, in rig.Instruments, fin func(*disk.Disk)) {
			observedRigWrites(t, rig.Config{Instruments: in}, fin)
		}},
		{"stddisk-rig", func(t *testing.T, in rig.Instruments, fin func(*disk.Disk)) {
			observedRigWrites(t, rig.Config{Baseline: sched.LOOK, Instruments: in}, fin)
		}},
		{"tpcc-deploy", func(t *testing.T, in rig.Instruments, fin func(*disk.Disk)) {
			db := tpcc.Config{Districts: 2, CustomersPerDistrict: 10, Items: 40, InitialOrdersPerDistrict: 5, CachePages: 500, Seed: 42}
			r, runner, err := tpcc.Deploy(rig.Config{Instruments: in}, db, wal.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runner.Run(r.Env, tpcc.RunConfig{Transactions: 5, Seed: 7}); err != nil {
				t.Error(err)
			}
			r.Close()
			runtime.SetFinalizer(r.DataDisks[1], fin)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := rig.Instruments{Tracer: trace.New(0), Recorder: span.NewRecorder(0),
				Timeline: timeline.New(time.Millisecond), Registry: telemetry.NewRegistry()}
			collected := make(chan struct{}, 1)
			tc.build(t, in, func(*disk.Disk) { collected <- struct{}{} })
			if t.Failed() {
				return
			}
			for round := 1; ; round++ {
				runtime.GC()
				select {
				case <-collected:
				default:
					if round < 10 {
						runtime.Gosched()
						continue
					}
					t.Fatalf("a drive of the closed world survived %d collections while its instruments were kept", round)
				}
				break
			}
			var prom strings.Builder
			if err := in.Registry.WriteProm(&prom); err != nil || in.Registry.Len() == 0 || in.Tracer.Len() == 0 || len(in.Recorder.Requests()) == 0 {
				t.Errorf("the kept bundle lost its contents: %d series (%v), %d events, %d requests",
					in.Registry.Len(), err, in.Tracer.Len(), len(in.Recorder.Requests()))
			}
		})
	}
}

// observedRigWrites runs a few writes through a rig built from cfg, closes
// it and puts fin on its data disk.
func observedRigWrites(t *testing.T, cfg rig.Config, fin func(*disk.Disk)) {
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 4*512)
		for i := 0; i < 8; i++ {
			if err := r.Dev(0).Write(p, int64(i)*64, 4, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	r.Run()
	r.Close()
	runtime.SetFinalizer(r.DataDisks[0], fin)
}
