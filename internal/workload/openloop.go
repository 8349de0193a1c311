package workload

import (
	"fmt"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Open-loop load generation: unlike the closed-loop §5.1 workloads (where
// each process waits for its previous write before issuing the next, so the
// device can never be offered more than it serves), an open-loop generator
// issues writes at a fixed arrival rate regardless of completions. Offered
// load above the device's capacity is exactly the overload regime the QoS
// layer exists for, where sheds and deadline misses are outcomes to count.

// OpenLoopConfig describes one fixed-rate run.
type OpenLoopConfig struct {
	// Interarrival is the fixed virtual-time gap between request issues.
	Interarrival time.Duration
	// Requests is the total number of writes issued.
	Requests int
	// WriteSize is the size of each write in bytes (sector multiple).
	WriteSize int
	// Seed feeds the random target generator.
	Seed uint64
}

// WithDefaults fills in the zero fields: 5 ms apart, 100 requests, 1 KB
// writes.
func (c OpenLoopConfig) WithDefaults() OpenLoopConfig {
	if c.Interarrival <= 0 {
		c.Interarrival = 5 * time.Millisecond
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
	if c.WriteSize == 0 {
		c.WriteSize = 1024
	}
	return c
}

// OpenLoop builds the open load of one fixed-rate run: Requests
// random-target writes, Interarrival apart, issued by the
// open-loop-arrivals process.
func OpenLoop(cfg OpenLoopConfig, devSectors int64) (Load, error) {
	cfg = cfg.WithDefaults()
	if cfg.WriteSize < 0 || cfg.WriteSize%geom.SectorSize != 0 {
		return Load{}, fmt.Errorf("workload: write size %d not a positive sector multiple", cfg.WriteSize)
	}
	if cfg.Requests < 0 {
		return Load{}, fmt.Errorf("workload: negative request count %d", cfg.Requests)
	}
	sectors := cfg.WriteSize / geom.SectorSize
	rng := sim.NewRand(cfg.Seed)
	ops := make([]TraceOp, cfg.Requests)
	for i := range ops {
		ops[i] = TraceOp{At: time.Duration(i) * cfg.Interarrival, Write: true,
			LBA: alignedTarget(rng, devSectors, sectors), Sectors: sectors}
	}
	return Load{Open: true, Streams: []Stream{{Name: "open-loop-arrivals", Ops: ops}}}, nil
}
