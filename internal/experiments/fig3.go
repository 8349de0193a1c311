package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

// Fig3Row is one write-size point of Figure 3: mean synchronous write
// latency for Trail and the standard (Linux) subsystem in sparse and
// clustered mode.
type Fig3Row struct {
	SizeKB                      int
	TrailSparse, TrailClustered time.Duration
	LinuxSparse, LinuxClustered time.Duration
}

// Speedup returns Trail's best-case advantage at this size (the paper
// headlines "up to 11.85 times faster").
func (r Fig3Row) Speedup() float64 {
	if r.TrailSparse == 0 {
		return 0
	}
	return float64(r.LinuxClustered) / float64(r.TrailSparse)
}

// Fig3Result is one panel of Figure 3 (a: one process, b: five processes).
type Fig3Result struct {
	Processes int
	Rows      []Fig3Row
}

// Figure3Config tunes the experiment.
type Figure3Config struct {
	// Processes is the multiprogramming level (panel a: 1, panel b: 5).
	Processes int
	// SizesKB are the request sizes to sweep (default 1..32 KB).
	SizesKB []int
	// WritesPerProcess per point.
	WritesPerProcess int
	// Seed drives target selection.
	Seed uint64
}

// Figure3 reproduces one panel of Figure 3: average synchronous write
// latency versus request size, for sparse and clustered arrivals, on Trail
// and on the standard disk subsystem.
func Figure3(cfg Figure3Config) (*Fig3Result, error) {
	if len(cfg.SizesKB) == 0 {
		cfg.SizesKB = []int{1, 2, 4, 8, 16, 32}
	}
	res := &Fig3Result{Processes: cfg.Processes}
	for _, sizeKB := range cfg.SizesKB {
		row := Fig3Row{SizeKB: sizeKB}
		for _, mode := range []workload.Mode{workload.Sparse, workload.Clustered} {
			wcfg := workload.SyncWriteConfig{
				Mode:             mode,
				WriteSize:        sizeKB * 1024,
				Processes:        cfg.Processes,
				WritesPerProcess: cfg.WritesPerProcess,
				Seed:             cfg.Seed + uint64(sizeKB),
			}
			// Trail, then the Linux baseline on the same targets.
			tres, _, err := syncWriteCell("trail", wcfg)
			if err != nil {
				return nil, fmt.Errorf("fig3 trail %dKB %v: %w", sizeKB, mode, err)
			}
			lres, _, err := syncWriteCell("std", wcfg)
			if err != nil {
				return nil, fmt.Errorf("fig3 linux %dKB %v: %w", sizeKB, mode, err)
			}
			if mode == workload.Sparse {
				row.TrailSparse = tres.Writes.Mean()
				row.LinuxSparse = lres.Writes.Mean()
			} else {
				row.TrailClustered = tres.Writes.Mean()
				row.LinuxClustered = lres.Writes.Mean()
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// syncWriteCell runs one sync-write load on a fresh rig of system, "trail"
// or "std" (the baseline behind LOOK), and returns the load's result and,
// on Trail, the driver's counters. A seed names the same targets on both
// systems, since their data disks are alike.
func syncWriteCell(system string, wcfg workload.SyncWriteConfig) (*workload.Result, telemetry.Counts, error) {
	var cfg rig.Config
	if system != "trail" {
		cfg.Baseline = sched.LOOK
	}
	r, err := rig.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	load, err := workload.SyncWrites(wcfg, r.Dev(0).Sectors())
	if err != nil {
		return nil, nil, err
	}
	res, err := workload.Run(r.Env, r.Dev(0), load)
	if err != nil {
		return nil, nil, err
	}
	var counters telemetry.Counts
	if r.Trail != nil {
		counters = r.Trail.Stats().Counters()
	}
	return res, counters, nil
}

// String renders the panel as a table in milliseconds.
func (r *Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: avg sync write latency (ms), %d process(es)\n", r.Processes)
	fmt.Fprintf(&b, "%8s %14s %14s %14s %14s %10s\n",
		"size KB", "Trail/sparse", "Trail/clust", "Linux/sparse", "Linux/clust", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14s %14s %14s %14s %9.2fx\n",
			row.SizeKB, fmtMS(row.TrailSparse), fmtMS(row.TrailClustered),
			fmtMS(row.LinuxSparse), fmtMS(row.LinuxClustered), row.Speedup())
	}
	return b.String()
}

// Plot renders the panel as an ASCII chart (the paper's figure form).
func (r *Fig3Result) Plot() string {
	mk := func(name string, pick func(Fig3Row) time.Duration) Series {
		s := Series{Name: name}
		for _, row := range r.Rows {
			s.Points = append(s.Points, [2]float64{float64(row.SizeKB), pick(row).Seconds() * 1000})
		}
		return s
	}
	return AsciiPlot(
		fmt.Sprintf("Figure 3 (%d process(es)): sync write latency", r.Processes),
		"write size KB", "ms",
		[]Series{
			mk("Trail sparse", func(r Fig3Row) time.Duration { return r.TrailSparse }),
			mk("Trail clustered", func(r Fig3Row) time.Duration { return r.TrailClustered }),
			mk("Linux sparse", func(r Fig3Row) time.Duration { return r.LinuxSparse }),
			mk("Linux clustered", func(r Fig3Row) time.Duration { return r.LinuxClustered }),
		}, 64, 16)
}
