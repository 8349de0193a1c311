package sched

import "tracklog/internal/telemetry"

// Counters names every Stats field as a "sched.*" counter, the queue wait
// in whole microseconds.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"sched.submitted":     s.Submitted,
		"sched.completed":     s.Completed,
		"sched.errors":        s.Errors,
		"sched.shed":          s.Shed,
		"sched.expired":       s.Expired,
		"sched.queue_wait_us": s.QueueWait.Microseconds(),
		"sched.queue_peak":    int64(s.MaxDepth),
	}
}

// Levels snapshots the requests currently queued.
func (q *Queue) Levels() telemetry.Levels {
	return telemetry.Levels{"sched.queue_depth": float64(q.Depth())}
}

// RegisterMetrics registers the queue's Stats counters and Levels on reg,
// labeled disk=name, and registers the underlying drive under the same
// label. A nil registry registers nothing.
func (q *Queue) RegisterMetrics(reg *telemetry.Registry, name string) {
	l := telemetry.Label{Key: "disk", Value: name}
	reg.CounterFuncs(func() telemetry.Counts { return q.stats.Counters() }, l)
	reg.GaugeFuncs(q.Levels, l)
	q.disk.RegisterMetrics(reg, name)
}
