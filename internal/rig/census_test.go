package rig

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
)

// The fault census runs every rig shape under every fault scenario, each
// world named by its inputs alone — shape, scenario, maxlba, seed — so a
// failing one replays exactly. A world is an open load of random 1-16 sector
// reads and writes whose write extents are disjoint, and three verdicts hold
// in every world: each issued request completes, each error a request
// returns wraps one of blockdev's device sentinels, and each acknowledged
// write reads back (or its read fails with a sentinel). A Trail world's
// driver then passes its own audit (trail.Driver.CheckInvariants).
var (
	censusShapes = []struct {
		name string
		cfg  Config
	}{
		{"trail-1log-1data", Config{}},
		{"trail-1log-2data", Config{DataDisks: 2}},
		{"trail-2log-1data", Config{LogDisks: 2}},
		{"trail-2log-2data", Config{LogDisks: 2, DataDisks: 2}},
		{"std-look", Config{Baseline: sched.LOOK}},
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
// censusSlot-sector slot; every write has a slot of its own.
const (
	censusOps  = 600
	censusGap  = time.Millisecond
	censusSlot = 16
)

// deviceSentinels are the errors a device may surface to its client.
var deviceSentinels = []error{blockdev.ErrMediaError, blockdev.ErrTimeout,
	blockdev.ErrDeviceFailed, blockdev.ErrOverload, blockdev.ErrDeadlineExceeded}

// censusDev spreads slot k over device k mod n at the same LBA and records
// every error no device sentinel classifies.
type censusDev struct {
	devs         []blockdev.Device
	unclassified []error
}

func (c *censusDev) pick(lba int64) blockdev.Device {
	return c.devs[lba/censusSlot%int64(len(c.devs))]
}

func (c *censusDev) note(err error) error {
	if err != nil && !slices.ContainsFunc(deviceSentinels, func(s error) bool { return errors.Is(err, s) }) {
		c.unclassified = append(c.unclassified, err)
	}
	return err
}

func (c *censusDev) ID() blockdev.DevID { return c.devs[0].ID() }
func (c *censusDev) Sectors() int64     { return c.devs[0].Sectors() }

func (c *censusDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	got, err := c.pick(lba).Read(p, lba, count)
	return got, c.note(err)
}

func (c *censusDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return c.note(c.pick(lba).Write(p, lba, count, data))
}

// censusLoad is seed's open load over a device of sectors: half the requests
// are writes, each to a slot no other write touches, the rest reads of any
// slot.
func censusLoad(seed uint64, sectors int64) workload.Load {
	rng := sim.NewRand(seed)
	slots := rng.Perm(int(sectors / censusSlot))
	ops := make([]workload.TraceOp, censusOps)
	for i := range ops {
		op := workload.TraceOp{At: time.Duration(i) * censusGap, Write: rng.Intn(2) == 0, Sectors: rng.IntRange(1, censusSlot)}
		if op.Write {
			op.LBA = int64(slots[i]) * censusSlot
		} else {
			op.LBA = int64(rng.Intn(len(slots))) * censusSlot
		}
		ops[i] = op
	}
	return workload.Load{Open: true, Streams: []workload.Stream{{Name: "census", Ops: ops}}}
}

// censusWorld runs one world and returns what went wrong in it.
func censusWorld(cfg Config, scenario string, maxLBA int64, seed uint64) []string {
	fcfg, err := fault.ParseScenario(scenario)
	if err != nil {
		return []string{err.Error()}
	}
	fcfg.MaxLBA = maxLBA
	cfg.LogDisk, cfg.DataDisk, cfg.Faults, cfg.FaultSeed = smallLog(), smallData(), &fcfg, seed
	r, err := New(cfg)
	if err != nil {
		return []string{err.Error()}
	}
	defer r.Close()
	type ack struct {
		lba  int64
		data []byte
	}
	var acks []ack
	dev := &censusDev{devs: r.Devs()}
	load := censusLoad(seed, dev.Sectors())
	load.OnAck = func(lba int64, _ int, data []byte, _ sim.Time) { acks = append(acks, ack{lba, data}) }
	var problems []string
	if _, err := workload.Run(r.Env, dev, load); err != nil {
		problems = append(problems, err.Error())
	}
	lost, read := 0, 0
	r.Go("readback", func(p *sim.Proc) {
		for _, a := range acks {
			got, err := dev.Read(p, a.lba, len(a.data)/geom.SectorSize)
			if err == nil && !bytes.Equal(got, a.data) {
				lost++
			}
			read++
		}
	})
	r.Run()
	if read < len(acks) {
		problems = append(problems, fmt.Sprintf("read-back stopped after %d of %d acknowledged writes", read, len(acks)))
	}
	if lost > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d acknowledged writes read back other data", lost, len(acks)))
	}
	if r.Trail != nil {
		if err := r.Trail.CheckInvariants(); err != nil {
			problems = append(problems, err.Error())
		}
	}
	for _, err := range dev.unclassified {
		problems = append(problems, "error wraps no device sentinel: "+err.Error())
	}
	return problems
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
		return censusWorld(censusShapes[w.shape].cfg, w.scenario, w.maxLBA, w.seed)
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
