package stacks_test

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
)

func worldLogParams() disk.Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew = 4
	g.CylSkew = 8
	return disk.Params{
		Name:            "traillog",
		RPM:             6000,
		Geom:            g,
		SeekT2T:         800 * time.Microsecond,
		SeekAvg:         4 * time.Millisecond,
		SeekMax:         8 * time.Millisecond,
		HeadSwitch:      400 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   500 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

func worldDataParams() disk.Params {
	p := worldLogParams()
	p.Name = "d"
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// buildTrailWorld assembles a Trail rig, runs a deterministic write burst to
// quiescence, and registers every component in a World.
func buildTrailWorld(t testing.TB, writes int) *crashexplore.World {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	log := disk.New(env, worldLogParams())
	if err := trail.Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, worldDataParams())
	plan := fault.Attach(data, sim.NewRand(17), fault.Config{LatentReadErrors: 1})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			buf := crashexplore.Payload(i%8, i/8+1, 2)
			if err := dev.Write(p, int64((i%8)*64), 2, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()

	w := crashexplore.NewWorld(env)
	w.Register("disk.log", log)
	w.Register("disk.data", data)
	w.Register("fault.data", plan)
	w.Register("trail", drv)
	return w
}

// TestWorldSnapshotIdentical builds two independent rigs running the same
// deterministic workload; their world snapshots must be byte-identical, or
// the checkpoint digest would not fingerprint a run.
func TestWorldSnapshotIdentical(t *testing.T) {
	w1 := buildTrailWorld(t, 40)
	w2 := buildTrailWorld(t, 40)
	if !bytes.Equal(w1.Snapshot(), w2.Snapshot()) {
		t.Fatal("identical runs produced different world snapshots")
	}
}
