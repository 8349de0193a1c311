package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tracklog/internal/telemetry"
)

// The prediction audit measures the paper's central claim directly: Trail's
// software-only head-position prediction lands writes just ahead of the head,
// so the rotational wait of a log write should be a few sector times, not a
// fraction of a rotation. At every audited log write the tracer compares the
// driver's predicted landing sector with the simulator's true head position
// (obtained through the drive's HeadProbe — ground truth the driver itself
// can never see) and scores the slack between them.
//
// Slack is measured in sectors the head must still rotate through before
// reaching the predicted landing sector at the moment the media phase
// starts. A perfect prediction gives slack ≈ the driver's safety margin; a
// mispredicted write — the head has already passed the target — shows up as
// slack close to a full track, i.e. a near-full-rotation wait, exactly the
// failure mode the paper's §3.1 delta calibration maps out.

// auditState accumulates the per-write audit samples.
type auditState struct {
	predictions    int64
	mispredictions int64
	unaudited      int64
	rotWait        *telemetry.Summary // rotational wait of every audited write
	missCost       *telemetry.Summary // rotational wait of mispredicted writes
	slackHist      map[int]int64      // slack sectors -> count (clamped)
}

// slackHistMax clamps the slack histogram domain; anything larger lands in
// the final bucket (they are all "missed by most of a track" anyway).
const slackHistMax = 64

func newAuditState() auditState {
	return auditState{
		rotWait:   telemetry.NewSummary(),
		missCost:  telemetry.NewSummary(),
		slackHist: make(map[int]int64),
	}
}

// record scores one prediction. A prediction is a miss when the head must
// travel more than half the track to reach the target: a correct prediction
// deliberately lands a small safety margin ahead of the head, so genuine
// hits cluster near the safety margin and genuine misses near SPT.
func (a *auditState) record(waitNs int64, slack, spt int) {
	a.predictions++
	a.rotWait.Add(time.Duration(waitNs))
	h := slack
	if h > slackHistMax {
		h = slackHistMax
	}
	a.slackHist[h]++
	if spt > 0 && slack > spt/2 {
		a.mispredictions++
		a.missCost.Add(time.Duration(waitNs))
	}
}

func (a *auditState) report() *AuditReport {
	rep := &AuditReport{
		Predictions:    a.predictions,
		Mispredictions: a.mispredictions,
		Unaudited:      a.unaudited,
		RotWait:        telemetry.NewSummary(),
		MissCost:       telemetry.NewSummary(),
		SlackHist:      make(map[int]int64, len(a.slackHist)),
	}
	rep.RotWait.Merge(a.rotWait)
	rep.MissCost.Merge(a.missCost)
	for k, v := range a.slackHist {
		rep.SlackHist[k] = v
	}
	return rep
}

// AuditReport is the prediction-accuracy audit of one traced run.
type AuditReport struct {
	// Predictions counts audited log writes; Mispredictions the ones whose
	// predicted landing sector was already behind the head (slack > SPT/2).
	Predictions    int64
	Mispredictions int64
	// Unaudited counts predictions on devices with no registered probe.
	Unaudited int64
	// RotWait summarizes the true rotational wait of every audited write;
	// MissCost the wait of mispredicted writes only (the miss-cost
	// histogram: each miss costs a near-full rotation).
	RotWait  *telemetry.Summary
	MissCost *telemetry.Summary
	// SlackHist maps slack sectors (clamped at 64) to write counts.
	SlackHist map[int]int64
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
	if r.Unaudited > 0 {
		fmt.Fprintf(&b, ", %d unaudited", r.Unaudited)
	}
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
