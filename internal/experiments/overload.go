package experiments

import (
	"fmt"
	"time"

	"tracklog/internal/qos"
	"tracklog/internal/rig"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

// Overload: the paper evaluates Trail at offered loads the log disk can
// absorb; this experiment pushes past that point to measure what the QoS
// layer buys. A saturating probe first finds the device's per-write service
// time; open-loop load then arrives at overloadMultiplier times that rate,
// once with QoS disabled (the historical unbounded driver) and once with the
// default overload policy. Under QoS the driver sheds excess load explicitly
// and keeps the latency of what it does accept bounded; without it the log
// queue and staging grow with every arrival and tail latency follows.

// overloadMultiplier is the offered load relative to calibrated saturation.
const overloadMultiplier = 2.0

// OverloadRow is one policy's cell at overloadMultiplier times saturation.
type OverloadRow struct {
	// QoS is whether the overload policy was active.
	QoS bool
	// Acked/Shed/Expired partition the issued requests by outcome.
	Acked, Shed, Expired int64
	// Mean/P50/P99 summarize acknowledged-write latency only.
	Mean, P50, P99 time.Duration
	// MaxLogQueue is the log queue's high-water mark: bounded under QoS,
	// growing with offered load without it.
	MaxLogQueue int
}

// OverloadResult is the overload point, QoS off and on.
type OverloadResult struct {
	Rows []OverloadRow
}

// overloadPolicy is the overload cells' QoS configuration: the default
// policy with a deadline comfortably above saturated-but-healthy latency, so
// expiry marks genuine overload rather than ordinary queueing.
func overloadPolicy() *qos.Policy {
	pol := qos.Default()
	pol.DefaultDeadline = 500 * time.Millisecond
	return pol
}

// Overload calibrates saturation with a saturating probe, then offers
// overloadMultiplier times that load with and without the QoS policy. The
// probe and each cell are gridWrites open-loop arrivals at the gate's seed.
//
// The probe measures the per-write service time at saturation: arrivals
// every 50µs swamp the log disk, so every record ships a full batch and
// elapsed/acked is the best sustained per-write service time batching can
// deliver. (A closed-loop probe would measure per-write *latency*, which is
// several times higher than the batched service time and would make "2×
// load" comfortably sustainable.)
func Overload() (*OverloadResult, error) {
	cal, err := openLoopPoint("overload calibration", nil, 50*time.Microsecond)
	if err != nil {
		return nil, err
	}
	probe := cal.res[0]
	if n := probe.Writes.Count(); n != gridWrites {
		return nil, fmt.Errorf("overload calibration: probe lost writes: %d/%d acked", n, gridWrites)
	}
	interarrival := max(time.Duration(float64(probe.Elapsed/gridWrites)/overloadMultiplier), time.Microsecond)
	res := &OverloadResult{}
	for _, withQoS := range []bool{false, true} {
		var pol *qos.Policy
		if withQoS {
			pol = overloadPolicy()
		}
		point := fmt.Sprintf("overload %.1fx qos=%v", overloadMultiplier, withQoS)
		out, err := openLoopPoint(point, pol, interarrival)
		if err != nil {
			return nil, err
		}
		run := out.res[0]
		if run.Failed > 0 {
			return nil, fmt.Errorf("%s: %d unexpected write errors", point, run.Failed)
		}
		res.Rows = append(res.Rows, OverloadRow{
			QoS:         withQoS,
			Acked:       run.Writes.Count(),
			Shed:        run.Shed,
			Expired:     run.Expired,
			Mean:        run.Writes.Mean(),
			P50:         run.Writes.Quantile(0.50),
			P99:         run.Writes.Quantile(0.99),
			MaxLogQueue: out.trail.MaxLogQueue,
		})
	}
	if err := fired("overload", counter{"qos=on shed", res.Rows[1].Shed}); err != nil {
		return nil, err
	}
	return res, nil
}

// openLoopPoint runs gridWrites open-loop 1 KB writes, interarrival apart,
// on the default Trail system under pol (nil: no QoS).
func openLoopPoint(point string, pol *qos.Policy, interarrival time.Duration) (*outcome, error) {
	return runPoint(point, rig.Config{Trail: trail.Config{QoS: pol}}, false, func(sectors int64) ([]workload.Load, error) {
		load, err := workload.OpenLoop(workload.OpenLoopConfig{
			Interarrival: interarrival,
			Requests:     gridWrites,
			WriteSize:    1024,
			Seed:         gateSeed,
		}, sectors)
		return []workload.Load{load}, err
	})
}
