package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/trail"
)

// DeltaRow is one point of the §3.1 delta calibration sweep.
type DeltaRow struct {
	Delta int
	Mean  time.Duration
	// FullRotation marks deltas whose writes land behind the head and pay
	// ~a full revolution.
	FullRotation bool
}

// DeltaResult is the §3.1 calibration outcome.
type DeltaResult struct {
	Rows []DeltaRow
	// BestDelta is the smallest delta that does not incur a full rotation
	// (the paper finds "less than 15" for the ST41601N).
	BestDelta int
	RotPeriod time.Duration
}

// DeltaCalibration reproduces the paper's §3.1 delta derivation: perform a
// series of single-sector writes with the raw prediction formula
// S1 = elapsed + S0 + delta for increasing delta, and find the smallest
// delta whose writes do not pay a full rotation. The rig uses the paper's
// ST41601N log disk.
func DeltaCalibration(deltas []int, writesPerPoint int) (*DeltaResult, error) {
	if len(deltas) == 0 {
		deltas = []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24}
	}
	if writesPerPoint == 0 {
		writesPerPoint = 20
	}
	var res DeltaResult
	for _, delta := range deltas {
		cfg := trail.Default()
		cfg.FixedDelta = delta
		sys, err := rig.New(rig.Config{Trail: cfg})
		if err != nil {
			return nil, err
		}
		if res.RotPeriod == 0 {
			res.RotPeriod = sys.LogDisk.Params().RotPeriod()
		}
		dev := sys.Trail.Dev(0)
		lat := telemetry.NewSummary()
		sys.Env.Go("calib", func(p *sim.Proc) {
			dev.Write(p, 0, 1, make([]byte, geom.SectorSize)) // establish reference
			for i := 1; i <= writesPerPoint; i++ {
				p.Sleep(3 * time.Millisecond)
				start := p.Now()
				if err := dev.Write(p, int64(i*64), 1, make([]byte, geom.SectorSize)); err != nil {
					panic(err)
				}
				lat.Add(p.Now().Sub(start))
			}
		})
		sys.Env.Run()
		sys.Env.Close()
		row := DeltaRow{
			Delta:        delta,
			Mean:         lat.Mean(),
			FullRotation: lat.Mean() > res.RotPeriod/2,
		}
		res.Rows = append(res.Rows, row)
		if !row.FullRotation && res.BestDelta == 0 {
			res.BestDelta = delta
		}
	}
	return &res, nil
}

// String renders the sweep.
func (r *DeltaResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 3.1: delta calibration (rotation %.2f ms)\n", r.RotPeriod.Seconds()*1000)
	fmt.Fprintf(&b, "%8s %12s %14s\n", "delta", "mean ms", "full rotation")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12s %14v\n", row.Delta, fmtMS(row.Mean), row.FullRotation)
	}
	fmt.Fprintf(&b, "smallest safe delta: %d (paper: <15 for ST41601N)\n", r.BestDelta)
	return b.String()
}

// AnatomyResult is the §5.1 latency anatomy: the fixed-cost structure of
// Trail writes on the paper's hardware.
type AnatomyResult struct {
	// OneSector is the mean latency of a one-sector synchronous write
	// (paper: ~1.40 ms).
	OneSector time.Duration
	// FourKB is the mean latency of a 4 KB synchronous write (the paper's
	// abstract claims <1.5 ms; §5.1's own arithmetic gives ~2.4 ms).
	FourKB time.Duration
	// SectorTransfer is the raw one-sector media transfer time at the
	// outer zone (paper: ~0.13 ms).
	SectorTransfer time.Duration
	// Reposition is the mean track-switch cost (paper: ~1.5 ms).
	Reposition time.Duration
	// WritesPerSecondOneSector is the paper's 333 writes/s figure
	// (one-sector write + reposition).
	WritesPerSecondOneSector float64
}

// LatencyAnatomy reproduces §5.1's component analysis on the ST41601N.
func LatencyAnatomy(writes int) (*AnatomyResult, error) {
	if writes == 0 {
		writes = 50
	}
	res := &AnatomyResult{}
	measure := func(sectors int) (time.Duration, time.Duration, error) {
		// Low utilization threshold forces a reposition after every write
		// so its cost is sampled continuously.
		cfg := trail.Default()
		sys, err := rig.New(rig.Config{Trail: cfg})
		if err != nil {
			return 0, 0, err
		}
		defer sys.Env.Close()
		dev := sys.Trail.Dev(0)
		lat := telemetry.NewSummary()
		sys.Env.Go("anatomy", func(p *sim.Proc) {
			dev.Write(p, 0, sectors, make([]byte, sectors*geom.SectorSize))
			for i := 1; i <= writes; i++ {
				p.Sleep(10 * time.Millisecond) // sparse: repositioning masked
				start := p.Now()
				if err := dev.Write(p, int64(i*256), sectors, make([]byte, sectors*geom.SectorSize)); err != nil {
					panic(err)
				}
				lat.Add(p.Now().Sub(start))
			}
		})
		sys.Env.Run()
		s := sys.Trail.Stats()
		var repos time.Duration
		if s.Repositions > 0 {
			repos = s.RepositionTime / time.Duration(s.Repositions)
		}
		return lat.Mean(), repos, nil
	}
	var err error
	var repos1 time.Duration
	if res.OneSector, repos1, err = measure(1); err != nil {
		return nil, err
	}
	if res.FourKB, _, err = measure(8); err != nil {
		return nil, err
	}
	res.Reposition = repos1
	res.SectorTransfer = newParamsSectorTime()
	cycle := res.OneSector + res.Reposition
	if cycle > 0 {
		res.WritesPerSecondOneSector = float64(time.Second) / float64(cycle)
	}
	return res, nil
}

func newParamsSectorTime() time.Duration {
	sys, err := rig.New(rig.Config{})
	if err != nil {
		return 0
	}
	defer sys.Env.Close()
	return sys.LogDisk.Params().SectorTime(0)
}

// String renders the anatomy.
func (r *AnatomyResult) String() string {
	var b strings.Builder
	b.WriteString("Section 5.1: Trail write latency anatomy (ST41601N)\n")
	fmt.Fprintf(&b, "one-sector sync write:    %s ms   (paper ~1.40)\n", fmtMS(r.OneSector))
	fmt.Fprintf(&b, "4-KByte sync write:       %s ms   (abstract <1.5; Section 5.1 arithmetic ~2.4)\n", fmtMS(r.FourKB))
	fmt.Fprintf(&b, "sector transfer:          %s ms   (paper ~0.13)\n", fmtMS(r.SectorTransfer))
	fmt.Fprintf(&b, "reposition (track switch):%s ms   (paper ~1.5)\n", fmtMS(r.Reposition))
	fmt.Fprintf(&b, "1-sector writes/sec incl. reposition: %.0f (paper ~333)\n", r.WritesPerSecondOneSector)
	return b.String()
}
