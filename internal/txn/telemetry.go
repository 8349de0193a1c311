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

// Levels snapshots the keys currently present in the lock table.
func (m *Manager) Levels() telemetry.Levels {
	return telemetry.Levels{"txn.locked_keys": float64(len(m.locks))}
}

// RegisterMetrics registers the transaction manager's Stats counters and
// Levels on reg. A nil registry registers nothing.
func (m *Manager) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return m.stats.Counters() })
	reg.GaugeFuncs(m.Levels)
}
