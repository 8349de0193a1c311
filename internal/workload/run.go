package workload

import (
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// Load is a block request stream: streams of trace ops that Run issues
// against one device, closed or open.
type Load struct {
	// Streams each run as one process, named after the stream.
	Streams []Stream
	// Open issues each op in a process of its own (op-N, N its index), which
	// the stream's process spawns at the op's At: a slow op delays no later
	// arrival and a failed one stops nothing. A closed stream (the default)
	// issues each op once the previous one and the Gap after it are done,
	// and stops at its first error.
	Open bool
	// Untimed is the number of leading ops of each stream that are issued
	// but not timed (a reference write that sets the device up).
	Untimed int
	// OnAck, when non-nil, is called for every acknowledged write with its
	// target, payload (its own; the runner never touches it again), and the
	// load's issue count twice: the requests issued before this one, and
	// those issued by its acknowledgement. It is a Ledger's Record, which
	// audits acknowledged-write survival.
	OnAck func(lba int64, data []byte, issued, acked int)
}

// Stream is the ops of one process of a load.
type Stream struct {
	Name string
	// Ops are issued in order, none before its At after the run starts.
	Ops []TraceOp
	// Gap is the pause a closed stream takes after each completion.
	Gap time.Duration
}

// Result is the outcome of Run.
type Result struct {
	// Reads and Writes are the latencies of acknowledged timed ops. Shed
	// and expired requests complete near-instantly by design and would make
	// an overloaded system look fast, so they are only counted.
	Reads, Writes *telemetry.Summary
	// Shed counts blockdev.ErrOverload outcomes, Expired
	// blockdev.ErrDeadlineExceeded, Failed every other error.
	Shed, Expired, Failed int64
	// Elapsed runs from the first issue to the last completion.
	Elapsed time.Duration
	// Lagged counts ops issued after their At: the previous op of their
	// closed stream, or the gap after it, ran past it.
	Lagged int
}

// runner is the state of one Run.
type runner struct {
	dev          blockdev.Device
	load         Load
	start        sim.Time
	first, last  sim.Time
	issued, done int
	err          error
	res          Result
}

// Run issues load against dev and runs env to completion; env must be
// otherwise idle apart from the device's own processes. Every write of the
// op at index i of its stream carries byte i+b at offset b. Run returns the
// first error that stops a closed stream, once the other streams have
// finished, and an error when an issued op never completes.
func Run(env *sim.Env, dev blockdev.Device, load Load) (*Result, error) {
	r := &runner{dev: dev, load: load, start: env.Now(),
		res: Result{Reads: telemetry.NewSummary(), Writes: telemetry.NewSummary()}}
	for _, s := range load.Streams {
		env.Go(s.Name, func(p *sim.Proc) {
			for i, op := range s.Ops {
				if due := r.start.Add(op.At); p.Now() < due {
					p.Sleep(due.Sub(p.Now()))
				}
				if load.Open {
					env.Go(fmt.Sprintf("op-%d", i), func(p *sim.Proc) { r.issue(p, i, op) })
					continue
				}
				if err := r.issue(p, i, op); err != nil {
					if r.err == nil {
						r.err = fmt.Errorf("workload: %s: %w", s.Name, err)
					}
					return
				}
				if s.Gap > 0 {
					p.Sleep(s.Gap)
				}
			}
		})
	}
	env.Run()
	r.res.Elapsed = r.last.Sub(r.first)
	if r.err == nil && r.done < r.issued {
		r.err = fmt.Errorf("workload: %d of %d issued requests never completed", r.issued-r.done, r.issued)
	}
	return &r.res, r.err
}

// issue performs the op at index i of its stream and accounts for it.
func (r *runner) issue(p *sim.Proc, i int, op TraceOp) error {
	start := p.Now()
	if start > r.start.Add(op.At) {
		r.res.Lagged++
	}
	if r.issued == 0 {
		r.first = start
	}
	seq := r.issued
	r.issued++
	var data []byte
	var err error
	if op.Write {
		data = make([]byte, op.Sectors*geom.SectorSize)
		for b := range data {
			data[b] = byte(i + b)
		}
		err = r.dev.Write(p, op.LBA, op.Sectors, data)
	} else {
		_, err = r.dev.Read(p, op.LBA, op.Sectors)
	}
	r.done++
	r.last = max(r.last, p.Now())
	if err != nil {
		switch {
		case blockdev.IsShed(err):
			r.res.Shed++
		case blockdev.IsExpired(err):
			r.res.Expired++
		default:
			r.res.Failed++
		}
		return err
	}
	if i >= r.load.Untimed {
		lat := r.res.Reads
		if op.Write {
			lat = r.res.Writes
		}
		lat.Add(p.Now().Sub(start))
	}
	if op.Write && r.load.OnAck != nil {
		r.load.OnAck(op.LBA, data, seq, r.issued)
	}
	return nil
}
