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
// overloadMultiplier times that load with and without the QoS policy, at
// gridWrites open-loop arrivals per cell and the gate's seed.
func Overload() (*OverloadResult, error) {
	svc, err := calibrateSaturation()
	if err != nil {
		return nil, fmt.Errorf("overload calibration: %w", err)
	}
	res := &OverloadResult{}
	for _, withQoS := range []bool{false, true} {
		row, err := overloadCell(withQoS, svc)
		if err != nil {
			return nil, fmt.Errorf("overload %.1fx qos=%v: %w", overloadMultiplier, withQoS, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	if err := fired("overload", counter{"qos=on shed", res.Rows[1].Shed}); err != nil {
		return nil, err
	}
	return res, nil
}

// calibrateSaturation measures the per-write service time at saturation
// with an open-loop probe far above capacity: arrivals every 50µs swamp the
// log disk, so every record ships a full batch and elapsed/acked is the
// best sustained per-write service time batching can deliver. (A
// closed-loop probe would measure per-write *latency*, which is several
// times higher than the batched service time and would make "2× load"
// comfortably sustainable.)
func calibrateSaturation() (time.Duration, error) {
	sys, err := rig.New(rig.Config{})
	if err != nil {
		return 0, err
	}
	defer sys.Env.Close()
	const writes = 200
	load, err := workload.OpenLoop(workload.OpenLoopConfig{
		Interarrival: 50 * time.Microsecond,
		Requests:     writes,
		WriteSize:    1024,
		Seed:         gateSeed,
	}, sys.Dev(0).Sectors())
	if err != nil {
		return 0, err
	}
	wres, err := workload.Run(sys.Env, sys.Dev(0), load)
	if err != nil {
		return 0, err
	}
	if wres.Writes.Count() != writes {
		return 0, fmt.Errorf("probe lost writes: %d/%d acked", wres.Writes.Count(), writes)
	}
	return wres.Elapsed / writes, nil
}

// overloadCell runs one open-loop cell.
func overloadCell(withQoS bool, svc time.Duration) (*OverloadRow, error) {
	cfg := trail.Default()
	if withQoS {
		cfg.QoS = overloadPolicy()
	}
	sys, err := rig.New(rig.Config{Trail: cfg})
	if err != nil {
		return nil, err
	}
	defer sys.Env.Close()
	interarrival := time.Duration(float64(svc) / overloadMultiplier)
	if interarrival <= 0 {
		interarrival = time.Microsecond
	}
	load, err := workload.OpenLoop(workload.OpenLoopConfig{
		Interarrival: interarrival,
		Requests:     gridWrites,
		WriteSize:    1024,
		Seed:         gateSeed,
	}, sys.Dev(0).Sectors())
	if err != nil {
		return nil, err
	}
	wres, err := workload.Run(sys.Env, sys.Dev(0), load)
	if err != nil {
		return nil, err
	}
	if wres.Failed > 0 {
		return nil, fmt.Errorf("%d unexpected write errors", wres.Failed)
	}
	st := sys.Trail.Stats()
	return &OverloadRow{
		QoS:         withQoS,
		Acked:       wres.Writes.Count(),
		Shed:        wres.Shed,
		Expired:     wres.Expired,
		Mean:        wres.Writes.Mean(),
		P50:         wres.Writes.Quantile(0.50),
		P99:         wres.Writes.Quantile(0.99),
		MaxLogQueue: st.MaxLogQueue,
	}, nil
}
