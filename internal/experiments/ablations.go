package experiments

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

// ThresholdRow is one point of the track-utilization-threshold sweep.
type ThresholdRow struct {
	Threshold    float64
	MeanLatency  time.Duration
	Repositions  int64
	AvgTrackUtil float64
}

// ThresholdResult sweeps the 30% knob of §4.2.
type ThresholdResult struct {
	Rows []ThresholdRow
}

// ThresholdSweep measures the latency/space trade-off behind the paper's
// fixed 30% track utilization threshold: low thresholds reposition after
// nearly every record (latency pressure under clustered writes, poor space
// use); high thresholds pack tracks but risk rotational waits for free runs.
func ThresholdSweep(writes int, seed uint64) (*ThresholdResult, error) {
	res := &ThresholdResult{}
	for _, th := range []float64{0.05, 0.15, 0.30, 0.50, 0.80} {
		cfg := trail.Default()
		cfg.UtilizationThreshold = th
		sys, err := rig.New(rig.Config{Trail: cfg})
		if err != nil {
			return nil, err
		}
		load, err := workload.SyncWrites(workload.SyncWriteConfig{
			Mode:             workload.Clustered,
			WriteSize:        1024,
			WritesPerProcess: writes,
			Seed:             seed,
		}, sys.Dev(0).Sectors())
		var wres *workload.Result
		if err == nil {
			wres, err = workload.Run(sys.Env, sys.Dev(0), load)
		}
		if err != nil {
			sys.Env.Close()
			return nil, fmt.Errorf("threshold %.2f: %w", th, err)
		}
		s := sys.Trail.Stats()
		sys.Env.Close()
		res.Rows = append(res.Rows, ThresholdRow{
			Threshold:    th,
			MeanLatency:  wres.Writes.Mean(),
			Repositions:  s.Repositions,
			AvgTrackUtil: s.AvgTrackUtilization(),
		})
	}
	return res, nil
}

// String renders the sweep.
func (r *ThresholdResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: track utilization threshold (clustered 1KB writes)\n")
	fmt.Fprintf(&b, "%10s %12s %13s %12s\n", "threshold", "mean ms", "repositions", "track util")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%9.0f%% %12s %13d %11.1f%%\n",
			100*row.Threshold, fmtMS(row.MeanLatency), row.Repositions, 100*row.AvgTrackUtil)
	}
	return b.String()
}

// ReadPriorityRow compares read latency with and without the §4.3 priority.
type ReadPriorityRow struct {
	Policy       sched.Policy
	MeanReadTime time.Duration
}

// ReadPriorityResult is the §4.3 ablation.
type ReadPriorityResult struct {
	Rows []ReadPriorityRow
}

// ReadPriorityAblation measures data-disk read latency while Trail's
// write-back stream competes for the spindle, with reads prioritized
// (paper) versus a plain elevator.
func ReadPriorityAblation(reads int, seed uint64) (*ReadPriorityResult, error) {
	res := &ReadPriorityResult{}
	for _, policy := range []sched.Policy{sched.ReadPriorityLOOK, sched.LOOK} {
		cfg := trail.Default()
		cfg.DataPolicy = policy
		sys, err := rig.New(rig.Config{Trail: cfg})
		if err != nil {
			return nil, err
		}
		dev := sys.Trail.Dev(0)
		rng := sim.NewRand(seed)
		lat := telemetry.NewSummary()

		// Writer: a continuous stream of staged writes keeps the
		// write-back path busy on the data disk. The first device error
		// either process meets stops both and fails the ablation.
		writing := true
		var ioErr error
		sys.Env.Go("writer", func(p *sim.Proc) {
			for writing {
				lba := rng.Int64n(dev.Sectors()/8) * 8
				if err := dev.Write(p, lba, 8, make([]byte, 8*geom.SectorSize)); err != nil {
					ioErr, writing = cmp.Or(ioErr, err), false
					return
				}
				p.Sleep(2 * time.Millisecond)
			}
		})
		// Reader: cold reads that must reach the data disk.
		sys.Env.Go("reader", func(p *sim.Proc) {
			p.Sleep(50 * time.Millisecond) // let the write-back queue build
			for i := 0; i < reads && ioErr == nil; i++ {
				lba := (rng.Int64n(dev.Sectors()/16) + dev.Sectors()/16) &^ 7
				start := p.Now()
				if _, err := dev.Read(p, lba, 8); err != nil {
					ioErr = cmp.Or(ioErr, err)
					break
				}
				lat.Add(p.Now().Sub(start))
				p.Sleep(3 * time.Millisecond)
			}
			writing = false
		})
		deadline := sim.Time(60 * time.Second)
		for sys.Env.Now() < deadline && lat.Count() < int64(reads) && ioErr == nil {
			sys.Env.RunUntil(sys.Env.Now().Add(100 * time.Millisecond))
		}
		sys.Env.Close()
		if ioErr != nil {
			return nil, fmt.Errorf("read-priority ablation (%s): %w", policy, ioErr)
		}
		if lat.Count() < int64(reads) {
			return nil, fmt.Errorf("read-priority ablation: only %d of %d reads completed", lat.Count(), reads)
		}
		res.Rows = append(res.Rows, ReadPriorityRow{Policy: policy, MeanReadTime: lat.Mean()})
	}
	return res, nil
}

// String renders the ablation.
func (r *ReadPriorityResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: data disk read priority under write-back load\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%22s: mean read %s ms\n", row.Policy, fmtMS(row.MeanReadTime))
	}
	return b.String()
}

// MultiLogRow is one point of the §5.1 multi-log-disk extension.
type MultiLogRow struct {
	LogDisks    int
	MeanLatency time.Duration
	Elapsed     time.Duration
}

// MultiLogResult measures the paper's "final optimization".
type MultiLogResult struct {
	Rows []MultiLogRow
}

// MultiLogAblation measures clustered synchronous write performance as log
// disks are added: with two or more, repositioning on one disk is hidden
// behind writes to another ("it is possible to employ multiple log disks to
// completely hide the disk re-positioning overhead", §5.1).
func MultiLogAblation(writes int, seed uint64) (*MultiLogResult, error) {
	res := &MultiLogResult{}
	for _, n := range []int{1, 2, 3} {
		cfg := trail.Default()
		// Aggressive threshold maximizes repositioning, the overhead under
		// study.
		cfg.UtilizationThreshold = 0.05
		sys, err := rig.New(rig.Config{LogDisks: n, Trail: cfg})
		if err != nil {
			return nil, err
		}
		env := sys.Env
		load, err := workload.SyncWrites(workload.SyncWriteConfig{
			Mode:             workload.Clustered,
			WriteSize:        2048,
			WritesPerProcess: writes,
			Seed:             seed,
		}, sys.Dev(0).Sectors())
		var wres *workload.Result
		if err == nil {
			wres, err = workload.Run(env, sys.Dev(0), load)
		}
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("multi-log n=%d: %w", n, err)
		}
		res.Rows = append(res.Rows, MultiLogRow{
			LogDisks:    n,
			MeanLatency: wres.Writes.Mean(),
			Elapsed:     wres.Elapsed,
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *MultiLogResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: multiple log disks (section 5.1 final optimization)\n")
	fmt.Fprintf(&b, "%10s %12s %14s\n", "log disks", "mean ms", "elapsed ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %12s %14s\n", row.LogDisks, fmtMS(row.MeanLatency), fmtMS(row.Elapsed))
	}
	return b.String()
}

// RecoveryAblationResult compares recovery with each §3.3 optimization
// disabled.
type RecoveryAblationResult struct {
	// Baseline has both optimizations on.
	Baseline *trail.RecoverReport
	// NoBinarySearch scans every track to locate the youngest record.
	NoBinarySearch *trail.RecoverReport
	// NoLogHead walks the full record chain to the epoch start.
	NoLogHead *trail.RecoverReport
}

// RecoveryOptimizationsAblation crashes one Trail system with q pending
// records and recovers clones of its drives with each of the paper's two
// recovery optimizations disabled in turn.
func RecoveryOptimizationsAblation(q int, seed uint64) (*RecoveryAblationResult, error) {
	sys, err := crashWithBacklog(q, seed, nil)
	if err != nil {
		return nil, err
	}
	var reps [3]*trail.RecoverReport
	for i, opts := range []trail.RecoverOptions{{}, {SequentialScan: true}, {IgnoreLogHead: true}} {
		opts.SkipWriteBack = true // isolate locate+rebuild
		if reps[i], err = recoverClones(sys, opts); err != nil {
			return nil, err
		}
	}
	if err := fired("ablate-recovery", counter{"both optimizations records found", int64(reps[0].RecordsFound)},
		counter{"sequential scan records found", int64(reps[1].RecordsFound)},
		counter{"unbounded walk records found", int64(reps[2].RecordsFound)}); err != nil {
		return nil, err
	}
	return &RecoveryAblationResult{Baseline: reps[0], NoBinarySearch: reps[1], NoLogHead: reps[2]}, nil
}

// String renders the ablation.
func (r *RecoveryAblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: recovery optimizations (write-back skipped)\n")
	row := func(name string, rep *trail.RecoverReport) {
		fmt.Fprintf(&b, "%-22s locate %10s ms (%6d tracks)  rebuild %8s ms  records %d\n",
			name, fmtMS(rep.LocateTime), rep.TracksScanned, fmtMS(rep.RebuildTime), rep.RecordsFound)
	}
	row("both optimizations", r.Baseline)
	row("sequential scan", r.NoBinarySearch)
	row("unbounded walk", r.NoLogHead)
	return b.String()
}
