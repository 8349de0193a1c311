package workload

import (
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// Open-loop load generation: unlike the closed-loop §5.1 workloads (where
// each process waits for its previous write before issuing the next, so the
// device can never be offered more than it serves), an open-loop generator
// issues writes at a fixed arrival rate regardless of completions. Offered
// load above the device's capacity is exactly the overload regime the QoS
// layer exists for, so this runner tolerates per-request errors instead of
// aborting on the first one: sheds and deadline misses are counted, not
// fatal.

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
	// OnAck, when non-nil, is called for every acknowledged write with its
	// target, payload, and acknowledgement time — callers use it to audit
	// acknowledged-write survival after the run. The data slice must not be
	// retained mutably by the workload after the call.
	OnAck func(lba int64, sectors int, data []byte, at sim.Time)
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
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

// OpenLoopResult is the outcome of one open-loop run. Latency covers only
// acknowledged writes; shed and expired requests complete near-instantly by
// design and would make an overloaded system look fast.
type OpenLoopResult struct {
	Config  OpenLoopConfig
	Latency *telemetry.Summary
	// Acked counts successful writes; Shed counts blockdev.ErrOverload
	// outcomes; Expired counts blockdev.ErrDeadlineExceeded; OtherErrors is
	// everything else (media faults, device failure).
	Acked, Shed, Expired, OtherErrors int64
	// Elapsed is first issue to last completion.
	Elapsed time.Duration
}

// RunOpenLoopWrites issues cfg.Requests writes against dev at a fixed
// arrival rate, each in its own process so a slow (or stalled) request never
// delays later arrivals. It runs env to completion; env must be otherwise
// idle apart from the device's own processes.
func RunOpenLoopWrites(env *sim.Env, dev blockdev.Device, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	if cfg.WriteSize < 0 || cfg.WriteSize%geom.SectorSize != 0 {
		return nil, fmt.Errorf("workload: write size %d not a positive sector multiple", cfg.WriteSize)
	}
	if cfg.Requests < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", cfg.Requests)
	}
	sectors := cfg.WriteSize / geom.SectorSize
	res := &OpenLoopResult{Config: cfg, Latency: telemetry.NewSummary()}
	rng := sim.NewRand(cfg.Seed)
	var firstIssue, lastDone sim.Time
	started := false // the first issue may be at t=0
	env.Go("open-loop-arrivals", func(p *sim.Proc) {
		for i := 0; i < cfg.Requests; i++ {
			lba := alignedTarget(rng, dev.Sectors(), sectors)
			seq := i
			env.Go(fmt.Sprintf("op-%d", seq), func(p *sim.Proc) {
				data := make([]byte, cfg.WriteSize)
				for b := range data {
					data[b] = byte(seq + b)
				}
				start := p.Now()
				if !started {
					firstIssue, started = start, true
				}
				err := dev.Write(p, lba, sectors, data)
				switch {
				case err == nil:
					res.Acked++
					res.Latency.Add(p.Now().Sub(start))
					if cfg.OnAck != nil {
						cfg.OnAck(lba, sectors, data, p.Now())
					}
				case blockdev.IsShed(err):
					res.Shed++
				case blockdev.IsExpired(err):
					res.Expired++
				default:
					res.OtherErrors++
				}
				if p.Now() > lastDone {
					lastDone = p.Now()
				}
			})
			if i < cfg.Requests-1 {
				p.Sleep(cfg.Interarrival)
			}
		}
	})
	env.Run()
	res.Elapsed = lastDone.Sub(firstIssue)
	return res, nil
}
