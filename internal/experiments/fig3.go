package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/sched"
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
	// WritesPerProcess per point.
	WritesPerProcess int
	// Seed drives target selection.
	Seed uint64
}

// Figure3 reproduces one panel of Figure 3: average synchronous write
// latency versus request size (the paper's 1 to 32 KB), for sparse and
// clustered arrivals, on Trail and on the standard disk subsystem.
func Figure3(cfg Figure3Config) (*Fig3Result, error) {
	res := &Fig3Result{Processes: cfg.Processes}
	for _, sizeKB := range []int{1, 2, 4, 8, 16, 32} {
		row := Fig3Row{SizeKB: sizeKB}
		for _, mode := range []workload.Mode{workload.Sparse, workload.Clustered} {
			wcfg := workload.SyncWriteConfig{
				Mode:             mode,
				WriteSize:        sizeKB * 1024,
				Processes:        cfg.Processes,
				WritesPerProcess: cfg.WritesPerProcess,
				Seed:             cfg.Seed + uint64(sizeKB),
			}
			var means [2]time.Duration
			for i, sys := range syncSystems {
				out, err := runPoint(fmt.Sprintf("fig3 %s %dKB %v", sys.name, sizeKB, mode), sys.cfg, false, syncWrites(wcfg))
				if err != nil {
					return nil, err
				}
				means[i] = out.res[0].Writes.Mean()
			}
			if mode == workload.Sparse {
				row.TrailSparse, row.LinuxSparse = means[0], means[1]
			} else {
				row.TrailClustered, row.LinuxClustered = means[0], means[1]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// syncSystems are the systems of a sync-write point: Trail, then the
// standard subsystem behind LOOK. A seed names the same targets on both,
// since their data disks are alike.
var syncSystems = []struct {
	name string
	cfg  rig.Config
}{{"trail", rig.Config{}}, {"std", rig.Config{Baseline: sched.LOOK}}}

// syncWrites is the loads of a point of one sync-write load.
func syncWrites(wcfg workload.SyncWriteConfig) func(sectors int64) ([]workload.Load, error) {
	return func(sectors int64) ([]workload.Load, error) {
		load, err := workload.SyncWrites(wcfg, sectors)
		return []workload.Load{load}, err
	}
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
		"write size KB",
		[]Series{
			mk("Trail sparse", func(r Fig3Row) time.Duration { return r.TrailSparse }),
			mk("Trail clustered", func(r Fig3Row) time.Duration { return r.TrailClustered }),
			mk("Linux sparse", func(r Fig3Row) time.Duration { return r.LinuxSparse }),
			mk("Linux clustered", func(r Fig3Row) time.Duration { return r.LinuxClustered }),
		})
}
