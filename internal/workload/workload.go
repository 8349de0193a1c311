// Package workload builds block request streams and issues them: Run is the
// one loop that issues a stream against a block device; SyncWrites builds
// the paper's §5.1 synchronous-write loads (random targets, sparse or
// clustered, at a multiprogramming level), OpenLoop a fixed-rate load, and a
// Trace its replay.
package workload

import (
	"fmt"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Mode selects the request arrival pattern of §5.1.
type Mode int

const (
	// Clustered issues each request immediately after the previous one
	// completes.
	Clustered Mode = iota + 1
	// Sparse waits sparseGap after each completion before issuing the
	// next request; the gap exceeds Trail's repositioning overhead, so
	// track switches are masked.
	Sparse
)

// sparseGap is the sparse-mode inter-request delay: "larger than the
// repositioning overhead ... typical value is 1.5 msec".
const sparseGap = 5 * time.Millisecond

func (m Mode) String() string {
	switch m {
	case Clustered:
		return "clustered"
	case Sparse:
		return "sparse"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SyncWriteConfig describes one §5.1 run.
type SyncWriteConfig struct {
	// Mode is sparse or clustered.
	Mode Mode
	// WriteSize is the size of each synchronous write in bytes (must be a
	// sector multiple).
	WriteSize int
	// Processes is the multiprogramming level (Fig 3: 1 and 5).
	Processes int
	// WritesPerProcess is the number of writes each process issues.
	WritesPerProcess int
	// Seed feeds the random target generator.
	Seed uint64
}

// WithDefaults fills in the zero fields: 1 KB writes, one process, 100
// writes each.
func (c SyncWriteConfig) WithDefaults() SyncWriteConfig {
	if c.WriteSize == 0 {
		c.WriteSize = 1024
	}
	if c.Processes == 0 {
		c.Processes = 1
	}
	if c.WritesPerProcess == 0 {
		c.WritesPerProcess = 100
	}
	return c
}

// SyncWrites builds the closed load of one run: Processes streams named
// writer-N, each of WritesPerProcess random-target writes drawn from its own
// generator, pausing the sparse gap after each completion in sparse mode.
func SyncWrites(cfg SyncWriteConfig, devSectors int64) (Load, error) {
	cfg = cfg.WithDefaults()
	if cfg.WriteSize < 0 || cfg.WriteSize%geom.SectorSize != 0 {
		return Load{}, fmt.Errorf("workload: write size %d not a positive sector multiple", cfg.WriteSize)
	}
	if cfg.Processes < 0 || cfg.WritesPerProcess < 0 {
		return Load{}, fmt.Errorf("workload: negative count: %d processes x %d writes", cfg.Processes, cfg.WritesPerProcess)
	}
	sectors := cfg.WriteSize / geom.SectorSize
	var gap time.Duration
	if cfg.Mode == Sparse {
		gap = sparseGap
	}
	load := Load{Streams: make([]Stream, cfg.Processes)}
	for i := range load.Streams {
		rng := sim.NewRand(cfg.Seed + uint64(i)*7919)
		ops := make([]TraceOp, cfg.WritesPerProcess)
		for w := range ops {
			ops[w] = TraceOp{Write: true, LBA: alignedTarget(rng, devSectors, sectors), Sectors: sectors}
		}
		load.Streams[i] = Stream{Name: fmt.Sprintf("writer-%d", i), Ops: ops, Gap: gap}
	}
	return load, nil
}

// alignedTarget picks a random sector-aligned target with room for the
// write.
func alignedTarget(rng *sim.Rand, devSectors int64, sectors int) int64 {
	slots := devSectors / int64(sectors)
	return rng.Int64n(slots) * int64(sectors)
}
