package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// faultRegion bounds the workload and the sampled fault locations, so
// injected latent errors land in sectors the workload touches.
const faultRegion = 4096

// faultScenario is the comparison's fault scenario: three latent read errors
// and one transient timeout per drive, within faultRegion.
var faultScenario = fault.Config{LatentReadErrors: 3, Timeouts: 1, MaxLBA: faultRegion}

// FaultRow is one system's outcome under an injected fault scenario.
type FaultRow struct {
	System string
	// Writes/Reads are operations attempted; WriteErrors/ReadErrors are the
	// ones surfaced to the client as failures after the system's own
	// retries/redundancy were exhausted.
	Writes, Reads           int
	WriteErrors, ReadErrors int
	// CorruptReads counts reads that "succeeded" but returned wrong bytes —
	// silent data loss, the worst outcome.
	CorruptReads int
	MeanWrite    time.Duration
	// Counters merges the injection plan's trigger counts with the system's
	// own fault-handling telemetry.
	Counters telemetry.Counts
}

// FaultToleranceResult compares how the standard subsystem, Trail, and a
// RAID-5 array ride out the same deterministic fault scenario.
type FaultToleranceResult struct {
	Scenario string
	Rows     []FaultRow
}

// FaultTolerance issues writes seeded writes, with read-backs mixed in,
// against the three systems while faultScenario plays out on their drives:
// the standard subsystem and Trail get the plan on their data disk (Trail
// additionally on its log disk, since that is where its writes land), and
// the RAID-5 array gets it on one member device.
//
// Everything — workload addresses, payloads, fault locations, onset times —
// derives from seed via sim.Rand in virtual time, so two runs with the same
// arguments produce byte-identical results.
func FaultTolerance(writes int, seed uint64) (*FaultToleranceResult, error) {
	res := &FaultToleranceResult{Scenario: faultScenario.String()}
	for _, system := range []string{"standard", "trail", "raid5"} {
		row, err := faultToleranceRun(system, writes, seed)
		if err != nil {
			return nil, fmt.Errorf("fault tolerance %s: %w", system, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// faultToleranceRun builds one system with faultScenario attached and
// drives the workload against it.
func faultToleranceRun(system string, writes int, seed uint64) (*FaultRow, error) {
	cfg := faultScenario
	var sys *rig.Rig
	var dev blockdev.Device
	var plans []*fault.Plan
	var sysCounters func() telemetry.Counts
	var err error
	switch system {
	case "standard":
		if sys, err = rig.New(rig.Config{Baseline: sched.LOOK, Faults: &cfg, FaultSeed: seed}); err != nil {
			return nil, err
		}
		dev = sys.Dev(0)
		sysCounters = func() telemetry.Counts {
			s := sys.Std[0].Stats()
			return telemetry.Counts{"stddisk.retries": s.Retries, "stddisk.failures": s.Failures}
		}
	case "trail":
		if sys, err = rig.New(rig.Config{Faults: &cfg, FaultSeed: seed}); err != nil {
			return nil, err
		}
		dev = sys.Dev(0)
		sysCounters = func() telemetry.Counts { return sys.Trail.Stats().FaultCounters() }
	case "raid5":
		// Only member 0 is faulty: the array must mask one bad disk.
		if sys, err = rig.New(rig.Config{Baseline: sched.LOOK, Major: 9, DataDisks: 4}); err != nil {
			return nil, err
		}
		plans = append(plans, fault.Attach(sys.DataDisks[0], sim.NewRand(seed), cfg))
		a, err := raid.New(sys.Devs(), 8)
		if err != nil {
			sys.Close()
			return nil, err
		}
		dev = a
		sysCounters = func() telemetry.Counts { return a.Stats().Counters() }
	default:
		return nil, fmt.Errorf("unknown system %q", system)
	}
	env, plans := sys.Env, append(plans, sys.Plans...)
	defer env.Close()

	row := &FaultRow{System: system}
	lat := telemetry.NewSummary()
	rng := sim.NewRand(seed + 1)
	const extent = 8
	slots := int64(faultRegion / extent)
	written := make(map[int64]bool)
	env.Go("workload", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			lba := rng.Int64n(slots) * extent
			row.Writes++
			start := p.Now()
			err := dev.Write(p, lba, extent, payload(lba, extent))
			lat.Add(p.Now().Sub(start))
			if err != nil {
				row.WriteErrors++
			} else {
				written[lba] = true
			}
			// Read back an earlier write every few operations so latent
			// read errors on the data path actually surface.
			if i%4 == 3 {
				rb := rng.Int64n(slots) * extent
				if !written[rb] {
					continue
				}
				row.Reads++
				got, err := dev.Read(p, rb, extent)
				switch {
				case err != nil:
					row.ReadErrors++
				case !bytes.Equal(got, payload(rb, extent)):
					row.CorruptReads++
				}
			}
			p.Sleep(2 * time.Millisecond)
		}
	})
	env.Run()

	row.MeanWrite = lat.Mean()
	row.Counters = sysCounters()
	for _, plan := range plans {
		row.Counters.Merge(plan.Stats().Counters())
	}
	return row, nil
}

// payload derives a deterministic sector payload from the LBA so read-backs
// can detect corruption without bookkeeping.
func payload(lba int64, count int) []byte {
	buf := make([]byte, count*geom.SectorSize)
	for s := 0; s < count; s++ {
		b := byte((lba+int64(s))*131 + 7)
		for i := range buf[s*geom.SectorSize : (s+1)*geom.SectorSize] {
			buf[s*geom.SectorSize+i] = b + byte(i)
		}
	}
	return buf
}

// String renders the comparison.
func (r *FaultToleranceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance under scenario %s\n", r.Scenario)
	fmt.Fprintf(&b, "%-10s %7s %7s %7s %7s %8s %13s\n",
		"system", "writes", "w-errs", "reads", "r-errs", "corrupt", "mean write")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %7d %7d %7d %7d %8d %10s ms\n",
			row.System, row.Writes, row.WriteErrors, row.Reads, row.ReadErrors,
			row.CorruptReads, fmtMS(row.MeanWrite))
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "[%s]\n%s\n", row.System, row.Counters)
	}
	return b.String()
}
