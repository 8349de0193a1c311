package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"tracklog/internal/telemetry"
)

// The prediction audit measures the paper's central claim directly: Trail's
// software-only head-position prediction lands writes just ahead of the head,
// so the rotational wait of a log write should be a few sector times, not a
// fraction of a rotation. After every clean record write the Trail driver
// scores its own prediction from what a SCSI target exposes, the command's
// completion time: the time from the predicted media start to the
// completion, less the record's transfer, is the rotational wait the write
// paid. It emits one KPredict event with that wait; AuditEvents reads those
// events back out of a run's trace.
//
// Slack is measured in sectors the head must still rotate through before
// reaching the predicted landing sector at the moment the media phase
// starts. A perfect prediction gives slack ≈ the driver's safety margin; a
// mispredicted write — the head has already passed the target — shows up as
// slack close to a full track, i.e. a near-full-rotation wait, exactly the
// failure mode the paper's §3.1 delta calibration maps out.

// slackHistMax clamps the slack histogram domain; anything larger lands in
// the final bucket (they are all "missed by most of a track" anyway).
const slackHistMax = 64

// AuditReport is the prediction-accuracy audit of one traced run.
type AuditReport struct {
	// Predictions counts audited log writes; Mispredictions the ones whose
	// predicted landing sector was already behind the head (slack > SPT/2).
	Predictions    int64
	Mispredictions int64
	// RotWait summarizes the true rotational wait of every audited write;
	// MissCost the wait of mispredicted writes only (the miss-cost
	// histogram: each miss costs a near-full rotation).
	RotWait  *telemetry.Summary
	MissCost *telemetry.Summary
	// SlackHist maps slack sectors (clamped at 64) to write counts.
	SlackHist map[int]int64
}

// AuditEvents rebuilds the prediction audit from a trace as ReadChrome
// returned it: one sample per predict event (args count = the track's SPT,
// a = slack sectors, b = rotational wait in ns). It covers the events the
// trace holds, so a ring that wrapped is audited over its newest events. A
// predict event whose args do not decode is an error wrapping ErrBadChrome.
func AuditEvents(events []ChromeEvent) (*AuditReport, error) {
	rep := &AuditReport{
		RotWait:   telemetry.NewSummary(),
		MissCost:  telemetry.NewSummary(),
		SlackHist: make(map[int]int64),
	}
	for i, ev := range events {
		if ev.Name != KPredict.String() {
			continue
		}
		var args struct{ Count, A, B *int64 }
		if err := json.Unmarshal([]byte(ev.Args), &args); err != nil || args.Count == nil || args.A == nil || args.B == nil {
			return nil, fmt.Errorf("%w: event %d: predict args %q", ErrBadChrome, i, ev.Args)
		}
		rep.record(*args.B, int(*args.A), int(*args.Count))
	}
	return rep, nil
}

// record scores one prediction. A prediction is a miss when the head must
// travel more than half the track to reach the target: a correct prediction
// deliberately lands a small safety margin ahead of the head, so genuine
// hits cluster near the safety margin and genuine misses near SPT.
func (r *AuditReport) record(waitNs int64, slack, spt int) {
	r.Predictions++
	r.RotWait.Add(time.Duration(waitNs))
	r.SlackHist[min(slack, slackHistMax)]++
	if spt > 0 && slack > spt/2 {
		r.Mispredictions++
		r.MissCost.Add(time.Duration(waitNs))
	}
}

// MissRate returns the misprediction fraction (0 with no samples).
func (r *AuditReport) MissRate() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.Mispredictions) / float64(r.Predictions)
}

// String renders the audit report, with the slack histogram in sorted order
// so output is deterministic.
func (r *AuditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prediction audit: %d predictions, %d mispredicted (%.2f%%)",
		r.Predictions, r.Mispredictions, 100*r.MissRate())
	b.WriteByte('\n')
	if r.RotWait != nil && r.RotWait.Count() > 0 {
		fmt.Fprintf(&b, "  rotational wait: %v\n", r.RotWait)
	}
	if r.MissCost != nil && r.MissCost.Count() > 0 {
		fmt.Fprintf(&b, "  miss cost:       %v\n", r.MissCost)
	}
	if len(r.SlackHist) > 0 {
		keys := make([]int, 0, len(r.SlackHist))
		for k := range r.SlackHist {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		b.WriteString("  slack sectors:  ")
		for _, k := range keys {
			label := fmt.Sprintf("%d", k)
			if k == slackHistMax {
				label = fmt.Sprintf("%d+", slackHistMax)
			}
			fmt.Fprintf(&b, " %s:%d", label, r.SlackHist[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
