package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/span"
	"tracklog/internal/trace"
	"tracklog/internal/workload"
)

// Figure 3, traced: the same sync-write latency sweep as Figure3, but with a
// tracer and a span recorder attached to the Trail rig, so every point also
// reports the head-position prediction audit — misprediction rate and the
// true rotational wait the predictions bought — and the span-attributed
// decomposition of client latency into queue, mechanical, rotational-wait,
// and transfer time. This ties the paper's headline latency numbers
// (Figure 3) directly to its mechanism (§3.1): Trail is fast exactly when
// the audit shows sub-sector-scale rotational waits, and any regression in
// the predictor shows up here as a rising miss rate before it shows up as
// latency.

// Fig3TracedRow is one write-size point of the traced sweep (sparse mode,
// Trail only — the audit has no meaning for the in-place baseline).
type Fig3TracedRow struct {
	SizeKB int
	// MeanLatency is the mean client-visible sync write latency.
	MeanLatency time.Duration
	// Predictions/MissRate come from the prediction audit.
	Predictions int64
	MissRate    float64
	// MeanRotWait is the mean true rotational wait of audited log writes
	// (ground truth from the simulator, invisible to the driver).
	MeanRotWait time.Duration
	// Events is the number of trace events the run emitted (after ring
	// eviction), a coarse activity measure.
	Events int
	// The span-attributed mean per-write phase breakdown. Queue covers
	// scheduler queueing, batching delay, log-track switches, and retries;
	// Mech is the mechanical fixed costs (turnaround, overhead, seek,
	// head switch, settle); SpanRotWait is attributed rotational latency
	// (it independently confirms MeanRotWait); Xfer is media transfer.
	// Queue+Mech+SpanRotWait+Xfer == MeanLatency exactly: the span layer
	// attributes every nanosecond of client-visible latency.
	Queue, Mech, SpanRotWait, Xfer time.Duration
}

// Fig3TracedResult is the traced sweep.
type Fig3TracedResult struct {
	Processes int
	Rows      []Fig3TracedRow
}

// Figure3Traced runs the sparse-mode Trail side of Figure 3 with tracing
// attached and returns per-size latency plus prediction-audit figures.
func Figure3Traced(cfg Figure3Config) (*Fig3TracedResult, error) {
	cfg = cfg.withDefaults()
	res := &Fig3TracedResult{Processes: cfg.Processes}
	for _, sizeKB := range cfg.SizesKB {
		tracer := trace.New(0)
		rec := span.NewRecorder(0)
		tr, err := rig.New(rig.Config{Instruments: rig.Instruments{Tracer: tracer, Recorder: rec}})
		if err != nil {
			return nil, err
		}
		tres, err := workload.RunSyncWrites(tr.Env, tr.Trail.Dev(0), workload.SyncWriteConfig{
			Mode:             workload.Sparse,
			WriteSize:        sizeKB * 1024,
			Processes:        cfg.Processes,
			WritesPerProcess: cfg.WritesPerProcess,
			Seed:             cfg.Seed + uint64(sizeKB),
		})
		tr.Env.Close()
		if err != nil {
			return nil, fmt.Errorf("fig3traced %dKB: %w", sizeKB, err)
		}
		audit := tracer.Audit()
		row := Fig3TracedRow{
			SizeKB:      sizeKB,
			MeanLatency: tres.Latency.Mean(),
			Predictions: audit.Predictions,
			MissRate:    audit.MissRate(),
			MeanRotWait: audit.RotWait.Mean(),
			Events:      tracer.Len(),
		}
		var n int64
		var queue, mech, rot, xfer int64
		for _, rq := range rec.Requests() {
			if rq.Kind != span.KWrite {
				continue
			}
			n++
			queue += rq.PhaseTotal(span.PQueue) + rq.PhaseTotal(span.PTrackSwitch) +
				rq.PhaseTotal(span.PRetry)
			mech += rq.PhaseTotal(span.PTurnaround) + rq.PhaseTotal(span.POverhead) +
				rq.PhaseTotal(span.PSeek) + rq.PhaseTotal(span.PHeadSwitch) +
				rq.PhaseTotal(span.PSettle)
			rot += rq.PhaseTotal(span.PRotWait)
			xfer += rq.PhaseTotal(span.PTransfer)
		}
		if n > 0 {
			row.Queue = time.Duration(queue / n)
			row.Mech = time.Duration(mech / n)
			row.SpanRotWait = time.Duration(rot / n)
			row.Xfer = time.Duration(xfer / n)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the traced sweep as a table.
func (r *Fig3TracedResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (traced): Trail sparse latency, prediction audit, and span breakdown, %d process(es)\n", r.Processes)
	fmt.Fprintf(&b, "%8s %12s %12s %10s %14s | %9s %9s %9s %9s\n",
		"size KB", "latency ms", "predictions", "miss %", "rot wait ms",
		"queue", "mech", "rotwait", "xfer")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %12s %12d %10.2f %14s | %9s %9s %9s %9s\n",
			row.SizeKB, fmtMS(row.MeanLatency), row.Predictions,
			100*row.MissRate, fmtMS(row.MeanRotWait),
			fmtMS(row.Queue), fmtMS(row.Mech), fmtMS(row.SpanRotWait), fmtMS(row.Xfer))
	}
	b.WriteString("(span columns are mean per-write attributed time; they sum to the latency column)\n")
	return b.String()
}
