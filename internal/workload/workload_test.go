package workload

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

func baseline(env *sim.Env) blockdev.Device {
	d := disk.New(env, disk.Params{
		Name:            "base",
		RPM:             6000,
		Geom:            geom.Uniform(200, 2, 60),
		SeekT2T:         time.Millisecond,
		SeekAvg:         6 * time.Millisecond,
		SeekMax:         12 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	return stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
}

func trailDev(t *testing.T, env *sim.Env) blockdev.Device {
	t.Helper()
	logP := disk.Small()
	logP.Name, logP.Geom = "log", geom.Uniform(50, 2, 60)
	lg := disk.New(env, logP)
	if err := trail.Format(lg); err != nil {
		t.Fatal(err)
	}
	dataP := logP
	dataP.Name = "data"
	dataP.Geom = geom.Uniform(200, 2, 60)
	dd := disk.New(env, dataP)
	drv, err := trail.NewDriver(env, lg, []*disk.Disk{dd}, trail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return drv.Dev(0)
}

// runSync builds cfg's load for dev and runs it.
func runSync(env *sim.Env, dev blockdev.Device, cfg SyncWriteConfig) (*Result, error) {
	load, err := SyncWrites(cfg, dev.Sectors())
	if err != nil {
		return nil, err
	}
	return Run(env, dev, load)
}

func TestSyncWritesBaseline(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev := baseline(env)
	res, err := runSync(env, dev, SyncWriteConfig{
		Mode: Clustered, WriteSize: 1024, Processes: 1, WritesPerProcess: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.Count() != 50 {
		t.Errorf("samples = %d", res.Writes.Count())
	}
	if res.Writes.Mean() < 2*time.Millisecond {
		t.Errorf("baseline mean %v suspiciously fast", res.Writes.Mean())
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

// Elapsed runs from the first issue, which on a fresh environment is at
// t=0: one clustered writer's Elapsed is the sum of its latencies, and an
// open-loop run's is its last acknowledgement time.
func TestElapsedCountsFirstIssueAtZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  func(t *testing.T, env *sim.Env) blockdev.Device
	}{
		{"baseline", func(_ *testing.T, env *sim.Env) blockdev.Device { return baseline(env) }},
		{"trail", trailDev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			res, err := runSync(env, tc.dev(t, env), SyncWriteConfig{
				Mode: Clustered, WriteSize: 1024, Processes: 1, WritesPerProcess: 3, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed != res.Writes.Sum() {
				t.Errorf("closed loop: Elapsed %v, sum of latencies %v", res.Elapsed, res.Writes.Sum())
			}

			env2 := sim.NewEnv()
			defer env2.Close()
			var lastAck sim.Time
			dev2 := tc.dev(t, env2)
			load, err := OpenLoop(OpenLoopConfig{Interarrival: 50 * time.Millisecond, Requests: 3, Seed: 1}, dev2.Sectors())
			if err != nil {
				t.Fatal(err)
			}
			load.OnAck = func(int64, []byte, int, int) { lastAck = max(lastAck, env2.Now()) }
			ol, err := Run(env2, dev2, load)
			if err != nil {
				t.Fatal(err)
			}
			if ol.Writes.Count() != 3 || ol.Elapsed != time.Duration(lastAck) {
				t.Errorf("open loop: %d acked, Elapsed %v, last ack at %v", ol.Writes.Count(), ol.Elapsed, time.Duration(lastAck))
			}
		})
	}
}

func TestTrailBeatsBaseline(t *testing.T) {
	envB := sim.NewEnv()
	defer envB.Close()
	base, err := runSync(envB, baseline(envB), SyncWriteConfig{
		Mode: Sparse, WriteSize: 1024, WritesPerProcess: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	envT := sim.NewEnv()
	defer envT.Close()
	tr, err := runSync(envT, trailDev(t, envT), SyncWriteConfig{
		Mode: Sparse, WriteSize: 1024, WritesPerProcess: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Writes.Mean()*3 > base.Writes.Mean() {
		t.Errorf("trail %v vs baseline %v: expected >=3x win", tr.Writes.Mean(), base.Writes.Mean())
	}
}

func TestSparseVsClusteredOnTrail(t *testing.T) {
	run := func(mode Mode) time.Duration {
		env := sim.NewEnv()
		defer env.Close()
		res, err := runSync(env, trailDev(t, env), SyncWriteConfig{
			Mode: mode, WriteSize: 1024, WritesPerProcess: 60, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Writes.Mean()
	}
	sparse, clustered := run(Sparse), run(Clustered)
	// Paper §5.1: clustered writes take longer than sparse on Trail
	// because the track switch and turnaround are visible.
	if clustered <= sparse {
		t.Errorf("clustered %v <= sparse %v, want clustered slower", clustered, sparse)
	}
}

func TestMultipleProcessesQueue(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev := baseline(env)
	res, err := runSync(env, dev, SyncWriteConfig{
		Mode: Clustered, WriteSize: 1024, Processes: 5, WritesPerProcess: 20, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.Count() != 100 {
		t.Errorf("samples = %d", res.Writes.Count())
	}
	// With five concurrent writers the queueing delay must raise mean
	// latency versus a single writer.
	envS := sim.NewEnv()
	defer envS.Close()
	single, err := runSync(envS, baseline(envS), SyncWriteConfig{
		Mode: Clustered, WriteSize: 1024, Processes: 1, WritesPerProcess: 20, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes.Mean() <= single.Writes.Mean() {
		t.Errorf("5-process mean %v <= 1-process mean %v", res.Writes.Mean(), single.Writes.Mean())
	}
}

func TestRejectsUnalignedSize(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	if _, err := runSync(env, baseline(env), SyncWriteConfig{WriteSize: 1000}); err == nil {
		t.Error("unaligned write size accepted")
	}
}

// A write that fills the device is accepted and one a sector larger is
// refused, by both load builders, before any target is drawn: a draw from
// zero slots once panicked.
func TestRejectsWriteLargerThanDevice(t *testing.T) {
	const devSectors = 8
	for _, tc := range []struct {
		size    int
		refused bool
	}{{devSectors * geom.SectorSize, false}, {(devSectors + 1) * geom.SectorSize, true}} {
		check := func(what string, err error) {
			if (err != nil) != tc.refused {
				t.Errorf("%s: %d-byte write on %d sectors: err %v, want refused %v", what, tc.size, devSectors, err, tc.refused)
			}
		}
		_, err := SyncWrites(SyncWriteConfig{WriteSize: tc.size}, devSectors)
		check("SyncWrites", err)
		_, err = OpenLoop(OpenLoopConfig{WriteSize: tc.size}, devSectors)
		check("OpenLoop", err)
	}
}

func TestModeString(t *testing.T) {
	if Sparse.String() != "sparse" || Clustered.String() != "clustered" {
		t.Error("mode strings wrong")
	}
}
