package txn

import "tracklog/internal/telemetry"

// Counters names every Stats field as a "txn.*" counter, wait times in whole
// microseconds.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"txn.begun":        s.Begun,
		"txn.committed":    s.Committed,
		"txn.aborted":      s.Aborted,
		"txn.deadlocks":    s.Deadlocks,
		"txn.lock_waits":   s.LockWaits,
		"txn.lock_wait_us": s.LockWaitTime.Microseconds(),
		"txn.commit_io_us": s.CommitIOTime.Microseconds(),
	}
}

// RegisterMetrics registers the transaction manager's Stats counters and
// lock-table size on reg. A nil registry registers nothing.
func (m *Manager) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return m.stats.Counters() })
	reg.GaugeFunc(telemetry.Prefix+"txn_locked_keys",
		"Keys currently present in the lock table.",
		func() float64 { return float64(len(m.locks)) })
}
