package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/rig"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
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
func DeltaCalibration(writesPerPoint int) (*DeltaResult, error) {
	res := DeltaResult{RotPeriod: disk.ST41601N().RotPeriod()}
	for _, delta := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24} {
		out, err := runPoint(fmt.Sprintf("delta %d", delta), rig.Config{Trail: trail.Config{FixedDelta: delta}}, false, func(int64) ([]workload.Load, error) {
			return []workload.Load{spacedWrites("calib", writesPerPoint, 64, 1, 3*time.Millisecond)}, nil
		})
		if err != nil {
			return nil, err
		}
		mean := out.res[0].Writes.Mean()
		row := DeltaRow{Delta: delta, Mean: mean, FullRotation: mean > res.RotPeriod/2}
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
	res := &AnatomyResult{}
	// The default driver: writes 10 ms apart wait neither for one another
	// nor for a reposition, and the repositions the default utilization
	// threshold triggers as tracks fill give their cost.
	var outs [2]*outcome
	for i, sectors := range []int{1, 8} {
		var err error
		outs[i], err = runPoint(fmt.Sprintf("anatomy %d-sector", sectors), rig.Config{}, false, func(int64) ([]workload.Load, error) {
			return []workload.Load{spacedWrites("anatomy", writes, 256, sectors, 10*time.Millisecond)}, nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.OneSector, res.FourKB = outs[0].res[0].Writes.Mean(), outs[1].res[0].Writes.Mean()
	if s := outs[0].trail; s.Repositions > 0 {
		res.Reposition = s.RepositionTime / time.Duration(s.Repositions)
	}
	res.SectorTransfer = disk.ST41601N().SectorTime()
	cycle := res.OneSector + res.Reposition
	if cycle > 0 {
		res.WritesPerSecondOneSector = float64(time.Second) / float64(cycle)
	}
	return res, nil
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

// spacedWrites is one stream of writes of the given size, gap apart: an
// untimed reference write at LBA 0, then n timed writes at multiples of
// stride.
func spacedWrites(name string, n int, stride int64, sectors int, gap time.Duration) workload.Load {
	ops := make([]workload.TraceOp, n+1)
	for i := range ops {
		ops[i] = workload.TraceOp{Write: true, LBA: int64(i) * stride, Sectors: sectors}
	}
	return workload.Load{Untimed: 1, Streams: []workload.Stream{{Name: name, Ops: ops, Gap: gap}}}
}
