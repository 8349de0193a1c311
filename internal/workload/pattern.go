package workload

import (
	"fmt"

	"tracklog/internal/sim"
)

// Pattern selects write targets for a workload. Patterns must be
// deterministic functions of their generator.
type Pattern interface {
	// Next returns the next target LBA for a request of `sectors`
	// sectors on a device of devSectors capacity. The result must be
	// sector-aligned to the request size.
	Next(rng *sim.Rand, devSectors int64, sectors int) int64
	fmt.Stringer
}

// UniformPattern spreads writes uniformly over the device — the paper's
// "random target locations" (§5.1).
type UniformPattern struct{}

// Next implements Pattern.
func (UniformPattern) Next(rng *sim.Rand, devSectors int64, sectors int) int64 {
	return alignedTarget(rng, devSectors, sectors)
}

func (UniformPattern) String() string { return "uniform" }

// SequentialPattern appends, wrapping at the device end — the access shape
// of a log file.
type SequentialPattern struct {
	next int64
}

// Next implements Pattern.
func (s *SequentialPattern) Next(_ *sim.Rand, devSectors int64, sectors int) int64 {
	lba := s.next
	if lba+int64(sectors) > devSectors {
		lba = 0
	}
	s.next = lba + int64(sectors)
	return lba
}

func (s *SequentialPattern) String() string { return "sequential" }

// ZipfPattern skews writes toward low-numbered slots with a Zipf(s)
// distribution over n slots — a hot/cold working set, the common database
// page-access shape. It uses inverse-CDF sampling over a precomputed table.
type ZipfPattern struct {
	cdf  []float64
	name string
}

// NewZipf builds a Zipf pattern over n slots with exponent s (s ~ 0.99 is
// the classic choice).
func NewZipf(n int, s float64) *ZipfPattern {
	if n < 1 {
		n = 1
	}
	return &ZipfPattern{cdf: zipfCDF(n, s), name: fmt.Sprintf("zipf(%d,%.2f)", n, s)}
}

// Next implements Pattern.
func (z *ZipfPattern) Next(rng *sim.Rand, devSectors int64, sectors int) int64 {
	slots := devSectors / int64(sectors)
	slot := int64(sampleCDF(z.cdf, rng.Float64())) % slots
	return slot * int64(sectors)
}

func (z *ZipfPattern) String() string { return z.name }
