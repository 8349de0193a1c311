// Package workload implements the synchronous-write microbenchmark loads of
// the paper's §5.1: user-level processes issuing random-target synchronous
// writes against a block device, in sparse or clustered mode, at a given
// multiprogramming level.
package workload

import (
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
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

func (c SyncWriteConfig) withDefaults() SyncWriteConfig {
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

// SyncWriteResult is the outcome of one run.
type SyncWriteResult struct {
	Config  SyncWriteConfig
	Latency *telemetry.Summary
	// Elapsed is the wall (virtual) time from first issue to last
	// completion.
	Elapsed time.Duration
}

// RunSyncWrites drives the workload against dev in env and returns latency
// statistics. It spawns Processes writer processes and runs the environment
// to completion; env must be otherwise idle.
func RunSyncWrites(env *sim.Env, dev blockdev.Device, cfg SyncWriteConfig) (*SyncWriteResult, error) {
	cfg = cfg.withDefaults()
	if cfg.WriteSize < 0 || cfg.WriteSize%geom.SectorSize != 0 {
		return nil, fmt.Errorf("workload: write size %d not a positive sector multiple", cfg.WriteSize)
	}
	if cfg.Processes < 0 || cfg.WritesPerProcess < 0 {
		return nil, fmt.Errorf("workload: negative count: %d processes x %d writes", cfg.Processes, cfg.WritesPerProcess)
	}
	sectors := cfg.WriteSize / geom.SectorSize
	res := &SyncWriteResult{Config: cfg, Latency: telemetry.NewSummary()}
	var firstIssue, lastDone sim.Time
	started := false // the first issue may be at t=0
	var failed error
	for i := 0; i < cfg.Processes; i++ {
		rng := sim.NewRand(cfg.Seed + uint64(i)*7919)
		env.Go(fmt.Sprintf("writer-%d", i), func(p *sim.Proc) {
			data := make([]byte, cfg.WriteSize)
			for w := 0; w < cfg.WritesPerProcess; w++ {
				lba := alignedTarget(rng, dev.Sectors(), sectors)
				for b := range data {
					data[b] = byte(w + b)
				}
				start := p.Now()
				if !started {
					firstIssue, started = start, true
				}
				if err := dev.Write(p, lba, sectors, data); err != nil {
					failed = err
					return
				}
				res.Latency.Add(p.Now().Sub(start))
				if p.Now() > lastDone {
					lastDone = p.Now()
				}
				if cfg.Mode == Sparse {
					p.Sleep(sparseGap)
				}
			}
		})
	}
	env.Run()
	if failed != nil {
		return nil, fmt.Errorf("workload: write failed: %w", failed)
	}
	res.Elapsed = lastDone.Sub(firstIssue)
	return res, nil
}

// alignedTarget picks a random sector-aligned target with room for the
// write.
func alignedTarget(rng *sim.Rand, devSectors int64, sectors int) int64 {
	slots := devSectors / int64(sectors)
	return rng.Int64n(slots) * int64(sectors)
}
