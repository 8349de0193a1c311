package experiments

import (
	"strings"
	"testing"

	"tracklog/internal/rig"
	"tracklog/internal/trace"
	"tracklog/internal/workload"
)

func TestFigure3Traced(t *testing.T) {
	res, err := Figure3Traced(Figure3Config{
		SizesKB:          []int{1, 4},
		WritesPerProcess: 30,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanLatency <= 0 {
			t.Errorf("%dKB: non-positive latency %v", row.SizeKB, row.MeanLatency)
		}
		if row.Predictions == 0 {
			t.Errorf("%dKB: no predictions audited", row.SizeKB)
		}
		if row.MissRate < 0 || row.MissRate > 1 {
			t.Errorf("%dKB: miss rate %v out of range", row.SizeKB, row.MissRate)
		}
		// The paper's mechanism: predictions land just ahead of the head, so
		// mean rotational wait must be far below a full rotation (~11.1ms on
		// the ST41601N at 5400 rpm) — this is the claim the audit checks.
		if row.MeanRotWait.Milliseconds() >= 6 {
			t.Errorf("%dKB: mean rotational wait %v is rotation-scale — predictor broken",
				row.SizeKB, row.MeanRotWait)
		}
		if row.Events == 0 {
			t.Errorf("%dKB: no trace events", row.SizeKB)
		}
		// The span columns must tile the mean latency exactly, up to the
		// few ns the per-column integer divisions lose.
		sum := row.Queue + row.Mech + row.SpanRotWait + row.Xfer
		if d := row.MeanLatency - sum; d < -8 || d > 8 {
			t.Errorf("%dKB: span columns sum to %v, latency %v", row.SizeKB, sum, row.MeanLatency)
		}
		// And the attributed rotational wait must agree with the audit's
		// ground truth (the audit sees only log writes; the span layer sees
		// the same commands).
		if row.SpanRotWait <= 0 {
			t.Errorf("%dKB: no span-attributed rotational wait", row.SizeKB)
		}
	}
	out := res.String()
	if !strings.Contains(out, "prediction audit") || !strings.Contains(out, "miss %") {
		t.Errorf("render missing expected headers:\n%s", out)
	}
}

// A traced Trail run must report exactly the same client-visible latency as
// an untraced run of the same seed: tracing is observation only.
func TestTracingDoesNotPerturbWorkload(t *testing.T) {
	run := func(traced bool) (elapsed, mean int64) {
		sys, err := rig.New(rig.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Env.Close()
		if traced {
			tr := trace.New(0)
			sys.Env.SetTracer(tr)
			sys.Trail.SetTracer(tr)
		}
		res, err := workload.RunSyncWrites(sys.Env, sys.Trail.Dev(0), workload.SyncWriteConfig{
			Mode:             workload.Sparse,
			WriteSize:        2048,
			Processes:        2,
			WritesPerProcess: 25,
			Seed:             7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed), int64(res.Latency.Mean())
	}
	e0, m0 := run(false)
	e1, m1 := run(true)
	if e0 != e1 || m0 != m1 {
		t.Fatalf("traced run diverged: elapsed %d vs %d, mean %d vs %d", e0, e1, m0, m1)
	}
}
