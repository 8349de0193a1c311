package experiments

import (
	"testing"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
)

// The fault census runs every system shape under every fault scenario, each
// world named by its inputs alone — shape, scenario, maxlba, seed — so a
// failing one replays exactly through censusWorld. A world is an open load
// of random 1-16 sector reads and writes whose write extents are disjoint,
// run through runWorld, and three verdicts hold in every world: each
// issued request completes, each error a request returns wraps one of
// blockdev's device sentinels, and each acknowledged write reads back intact
// (or its read fails with a sentinel). A Trail world's driver then passes its
// own audit (trail.Driver.CheckInvariants).
var (
	censusShapes = []struct {
		name  string
		cfg   rig.Config
		raid5 bool
	}{
		{"trail-1log-1data", rig.Config{}, false},
		{"trail-1log-2data", rig.Config{DataDisks: 2}, false},
		{"trail-2log-1data", rig.Config{LogDisks: 2}, false},
		{"trail-2log-2data", rig.Config{LogDisks: 2, DataDisks: 2}, false},
		{"std-look", rig.Config{Baseline: sched.LOOK}, false},
		{"raid5-look", rig.Config{Baseline: sched.LOOK, Major: 9, DataDisks: 4}, true},
	}
	censusScenarios = []string{
		"wlatent=3", "latent=3", "timeout=3", "grow=16", "failat=300ms",
		"wlatent=2,timeout=2", "latent=2,grow=8", "wlatent=2,latent=2",
		"wlatent=2,failat=300ms", "timeout=2,grow=8,failat=300ms",
	}
	censusMaxLBAs = []int64{0, 64, 2000}
	censusSeeds   = []uint64{1, 2}
)

// A census load issues censusOps requests censusGap apart, each inside one
// faultSlot-sector slot; every write has a slot of its own.
const (
	censusOps = 600
	censusGap = time.Millisecond
)

// censusLoad is seed's open load over a device of sectors: half the requests
// are writes, each to a slot no other write touches, the rest reads of any
// slot.
func censusLoad(seed uint64, sectors int64) workload.Load {
	rng := sim.NewRand(seed)
	slots := rng.Perm(int(sectors / faultSlot))
	ops := make([]workload.TraceOp, censusOps)
	for i := range ops {
		op := workload.TraceOp{At: time.Duration(i) * censusGap, Write: rng.Intn(2) == 0, Sectors: rng.IntRange(1, faultSlot)}
		if op.Write {
			op.LBA = int64(slots[i]) * faultSlot
		} else {
			op.LBA = int64(rng.Intn(len(slots))) * faultSlot
		}
		ops[i] = op
	}
	return workload.Load{Open: true, Streams: []workload.Stream{{Name: "census", Ops: ops}}}
}

// censusWorld runs one world on small drives (disk.Small: the log disk, and
// 100 cylinders of it as every data disk) and returns what went wrong in it.
// A failed read is allowed: its error is judged with every other.
func censusWorld(cfg rig.Config, raid5 bool, scenario string, maxLBA int64, seed uint64) []string {
	fcfg, err := fault.ParseScenario(scenario)
	if err != nil {
		return []string{err.Error()}
	}
	fcfg.MaxLBA = maxLBA
	logP, dataP := disk.Small(), disk.Small()
	logP.Name = "log"
	dataP.Name, dataP.Geom = "data", geom.Uniform(100, 2, 60)
	cfg.LogDisk, cfg.DataDisk, cfg.Faults, cfg.FaultSeed = &logP, &dataP, &fcfg, seed
	s, err := newSystem(cfg, raid5)
	if err != nil {
		return []string{err.Error()}
	}
	out := runWorld(s, censusLoad(seed, s.dev.Sectors()))
	return out.problems()
}

// TestFaultCensus runs the census's worlds, in parallel, and names each one
// whose verdicts fail.
func TestFaultCensus(t *testing.T) {
	type world struct {
		shape    int
		scenario string
		maxLBA   int64
		seed     uint64
	}
	var worlds []world
	for shape := range censusShapes {
		for _, sc := range censusScenarios {
			for _, m := range censusMaxLBAs {
				for _, seed := range censusSeeds {
					worlds = append(worlds, world{shape, sc, m, seed})
				}
			}
		}
	}
	results := sim.Parallel(len(worlds), func(i int) []string {
		w := worlds[i]
		shape := censusShapes[w.shape]
		return censusWorld(shape.cfg, shape.raid5, w.scenario, w.maxLBA, w.seed)
	})
	failed := 0
	for i, problems := range results {
		if len(problems) == 0 {
			continue
		}
		failed++
		w := worlds[i]
		t.Errorf("%s %s maxlba=%d seed=%d: %v", censusShapes[w.shape].name, w.scenario, w.maxLBA, w.seed, problems)
	}
	if failed > 0 {
		t.Logf("%d of %d worlds failed", failed, len(worlds))
	}
}
