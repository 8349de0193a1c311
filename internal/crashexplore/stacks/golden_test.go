package stacks_test

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

func logParams() disk.Params {
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

func dataParams() disk.Params {
	p := logParams()
	p.Name = "d"
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// evolved builds drives after workloads that leave real state behind: a Trail
// log holding records whose blocks stay staged because their write-backs
// fail on a data drive under a fault plan, and a lone drive whose plan has
// pending timeouts beside a healed latent error. It returns the log, the
// Trail data drive and the lone drive, on env.
func evolved(tb testing.TB, env *sim.Env) []*disk.Disk {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}

	// Trail: every sector below 16 fails its write-back, so extents there
	// stay staged with their log references.
	log := disk.New(env, logParams())
	must(trail.Format(log))
	data := disk.New(env, dataParams())
	fault.Attach(data, sim.NewRand(5), fault.Config{LatentWriteErrors: 16, MaxLBA: 16})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	must(err)

	// A lone drive under a fault plan: two latent read errors that a write
	// heals, and timeouts sampled over more commands than the workload issues.
	plain := disk.New(env, dataParams())
	plan := fault.Attach(plain, sim.NewRand(21),
		fault.Config{LatentReadErrors: 2, Timeouts: 4, TimeoutWindow: 24, MaxLBA: 32})
	sd := stddisk.New(env, plain, blockdev.DevID{Major: 4, Minor: 2}, sched.LOOK)

	env.Go("trail", func(p *sim.Proc) {
		for _, w := range [][2]int{{0, 16}, {8, 8}, {64, 4}, {8, 8}} {
			if err := drv.Dev(0).Write(p, int64(w[0]), w[1], crashexplore.Payload(w[0], 1, w[1])); err != nil {
				tb.Errorf("trail write: %v", err)
			}
		}
	})
	env.Go("stddisk", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			sd.Write(p, int64(4*i), 4, crashexplore.Payload(i, 1, 4)) //nolint:errcheck // faults are the point
		}
	})
	env.Run()

	if drv.StagedBytes() == 0 || plan.Stats().Repaired == 0 || plan.Stats().Timeouts == 0 ||
		plan.Stats().Timeouts == 4 {
		tb.Fatalf("too little state left: staged %d, plan %+v", drv.StagedBytes(), plan.Stats())
	}
	return []*disk.Disk{log, data, plain}
}

// TestDriveGoldenDigests pins what two Trail logs hold: one a driver has just
// started on, and the evolved one. The digests were recorded at ca10543,
// where these drives' snapshot bytes were still pinned (at 5cdd678), so the
// media they fingerprint is the media those pins covered. The evolved log's
// was re-pinned when record headers came to list extent runs and carry a
// CRC: its four record header sectors moved, each decoding to the same
// fields, and no other sector did.
func TestDriveGoldenDigests(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	started := disk.New(env, logParams())
	if err := trail.Format(started); err != nil {
		t.Fatal(err)
	}
	if _, err := trail.NewDriver(env, started, []*disk.Disk{disk.New(env, dataParams())}, trail.Config{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *disk.Disk
		want uint64
	}{
		{"started log", started, 0x9f1ba94228259051},
		{"evolved log", evolved(t, env)[0], 0x96dbc646831f8f97},
	} {
		if got := tc.d.Digest(); got != tc.want {
			t.Errorf("%s: media digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// planStats is a drive's fault-plan counters (zero for a fault-free drive).
func planStats(d *disk.Disk) fault.Stats {
	if pl, ok := d.Injector().(*fault.Plan); ok {
		return pl.Stats()
	}
	return fault.Stats{}
}

// TestCloneMatchesSource holds each clone of the evolved drives to its
// source: the same media digest, drive counters and plan counters, and the
// same result for the same next timed command, run side by side; the plans
// then still agree. A second clone then reads and overwrites the whole
// working set, through its plan's latent errors and pending timeouts, and
// the source must not see any of it.
func TestCloneMatchesSource(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	for i, src := range evolved(t, env) {
		c := src.Clone()
		if c.Digest() != src.Digest() || c.Stats() != src.Stats() || planStats(c) != planStats(src) {
			t.Fatalf("drive %d: clone digest %#x, stats %+v, plan %+v; source %#x, %+v, %+v", i,
				c.Digest(), c.Stats(), planStats(c), src.Digest(), src.Stats(), planStats(src))
		}
		var rs, rc disk.Result
		env.Go("source", func(p *sim.Proc) { rs = src.Access(p, &disk.Request{LBA: 0, Count: 32}) })
		env.Go("clone", func(p *sim.Proc) { rc = c.Access(p, &disk.Request{LBA: 0, Count: 32}) })
		env.Run()
		if rs != rc || planStats(c) != planStats(src) {
			t.Errorf("drive %d: next read on the source %+v (plan %+v), on the clone %+v (plan %+v)",
				i, rs, planStats(src), rc, planStats(c))
		}

		digest, stats, plan := src.Digest(), src.Stats(), planStats(src)
		c = src.Clone()
		env.Go("clone", func(p *sim.Proc) {
			for lba := int64(0); lba < 128; lba += 8 {
				c.Access(p, &disk.Request{LBA: lba, Count: 8})
				c.Access(p, &disk.Request{Write: true, LBA: lba, Count: 8, Data: crashexplore.Payload(int(lba), 9, 8)})
			}
		})
		env.Run()
		if c.Digest() == digest || (c.Injector() != nil && planStats(c) == plan) {
			t.Fatalf("drive %d: the clone's workload left its media or its plan as they were", i)
		}
		if src.Digest() != digest || src.Stats() != stats || planStats(src) != plan {
			t.Errorf("drive %d: a clone's workload changed its source", i)
		}
	}
}
