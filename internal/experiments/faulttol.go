package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"tracklog/internal/fault"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

// faultRegion bounds the workload and the sampled fault locations, so
// injected latent errors land in sectors the workload touches; each request
// covers one faultExtent-sector slot of it.
const (
	faultRegion = 4096
	faultExtent = 8
)

// faultScenario is the comparison's fault scenario: three latent read errors
// per drive within faultRegion, and one transient timeout among each drive's
// first 50 commands, so that it fires in a run of the section's size.
var faultScenario = fault.Config{LatentReadErrors: 3, Timeouts: 1, TimeoutWindow: 50, MaxLBA: faultRegion}

// faultGap spaces the load's ops: wider than a RAID-5 small write, so no
// system's queue builds up.
const faultGap = 50 * time.Millisecond

// FaultRow is one system's outcome under an injected fault scenario.
type FaultRow struct {
	System string
	// Writes/Reads are operations attempted; WriteErrors/ReadErrors are the
	// ones surfaced to the client as failures after the system's own
	// retries/redundancy were exhausted.
	Writes, Reads           int
	WriteErrors, ReadErrors int
	// CorruptReads counts acknowledged targets whose read-back "succeeded"
	// but returned other bytes — silent data loss, the worst outcome.
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

// FaultTolerance runs writes seeded writes, with reads mixed in, against
// the three systems while faultScenario plays out on their drives: the
// standard subsystem and Trail get the plan on every drive (Trail's log disk
// too, since that is where its writes land), and the RAID-5 array gets it on
// member 0 only. Each system is one fault world (runFaultWorld), which then
// reads back every acknowledged write.
//
// Everything — workload addresses, payloads, fault locations, onset times —
// derives from seed via sim.Rand in virtual time, so two runs with the same
// arguments produce byte-identical results.
func FaultTolerance(writes int, seed uint64) (*FaultToleranceResult, error) {
	res := &FaultToleranceResult{Scenario: faultScenario.String()}
	var counters []counter
	for _, system := range []string{"standard", "trail", "raid5"} {
		row, err := faultToleranceRun(system, writes, seed)
		if err != nil {
			return nil, fmt.Errorf("fault tolerance %s: %w", system, err)
		}
		res.Rows = append(res.Rows, *row)
		counters = append(counters, counter{system + " fault.media_errors", row.Counters["fault.media_errors"]},
			counter{system + " fault.timeouts", row.Counters["fault.timeouts"]})
	}
	if err := fired("ext-faulttol", counters...); err != nil {
		return nil, err
	}
	return res, nil
}

// faultToleranceRun builds one system with faultScenario attached and runs
// its fault world. A request that never completes or an acknowledged target
// never read, an error that wraps no device sentinel or a failed driver
// audit fails the run; failed reads and read-backs of other bytes are the
// row's to count.
func faultToleranceRun(system string, writes int, seed uint64) (*FaultRow, error) {
	scenario := faultScenario
	cfg := rig.Config{Faults: &scenario, FaultSeed: seed}
	switch system {
	case "standard":
		cfg.Baseline = sched.LOOK
	case "raid5":
		cfg = rig.Config{Baseline: sched.LOOK, Major: 9, DataDisks: 4}
	}
	s, err := newFaultSystem(cfg, system == "raid5")
	if err != nil {
		return nil, err
	}
	if system == "raid5" {
		// Only member 0 is faulty: the array must mask one bad disk.
		s.plans = append(s.plans, fault.Attach(s.rig.DataDisks[0], sim.NewRand(seed), scenario))
	}
	out := runFaultWorld(s, faultLoad(writes, seed+1))
	errs := append(out.unclassified, out.runErr, out.invariants)
	if out.unread > 0 {
		errs = append(errs, fmt.Errorf("%d acknowledged targets never read back", out.unread))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	reads := writes/4 + faultRegion/faultExtent
	return &FaultRow{System: system, Writes: writes, WriteErrors: writes - int(out.res.Writes.Count()),
		Reads: reads + out.targets, ReadErrors: reads - int(out.res.Reads.Count()) + out.readErrs,
		CorruptReads: out.lost, MeanWrite: out.res.Writes.Mean(), Counters: out.counters}, nil
}

// faultLoad is the comparison's open load, one faultExtent-sector op every
// faultGap inside faultRegion: writes writes to random slots with a read of
// a random slot after every fourth, then one read of every slot, so that a
// latent error nothing else read surfaces.
func faultLoad(writes int, seed uint64) workload.Load {
	rng := sim.NewRand(seed)
	var ops []workload.TraceOp
	add := func(write bool, slot int64) {
		ops = append(ops, workload.TraceOp{At: time.Duration(len(ops)) * faultGap, Write: write, LBA: slot * faultExtent, Sectors: faultExtent})
	}
	for i := 0; i < writes; i++ {
		add(true, rng.Int64n(faultRegion/faultExtent))
		if i%4 == 3 {
			add(false, rng.Int64n(faultRegion/faultExtent))
		}
	}
	for slot := int64(0); slot < faultRegion/faultExtent; slot++ {
		add(false, slot)
	}
	return workload.Load{Open: true, Streams: []workload.Stream{{Name: "workload", Ops: ops}}}
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
