package txn

import (
	"fmt"

	"tracklog/internal/snapshot"
)

const mgrSnapKind = "txn.Manager"

// walk is the manager's snapshot format: the transaction counter and the
// activity stats.
func (m *Manager) walk(c *snapshot.Codec) {
	snapshot.I64(c, &m.nextID)
	snapshot.I64(c, &m.stats.Begun)
	snapshot.I64(c, &m.stats.Committed)
	snapshot.I64(c, &m.stats.Aborted)
	snapshot.I64(c, &m.stats.Deadlocks)
	snapshot.I64(c, &m.stats.LockWaits)
	snapshot.I64(c, &m.stats.LockWaitTime)
	snapshot.I64(c, &m.stats.CommitIOTime)
}

// Snapshot encodes the manager's state (see walk). The manager must be
// quiescent: no locks held, no transaction waiting — the state between
// client requests, which is where the crash explorer cuts.
func (m *Manager) Snapshot() []byte {
	if len(m.locks) > 0 || len(m.waitingOn) > 0 {
		panic("txn: snapshot with locks held or waiters parked")
	}
	return snapshot.Encode(mgrSnapKind, 1, m.walk)
}

// Restore adopts a state produced by Snapshot. The manager must be quiescent
// (no locks held, no waiters).
func (m *Manager) Restore(data []byte) error {
	s := *m
	if err := snapshot.Decode(data, mgrSnapKind, 1, s.walk); err != nil {
		return err
	}
	if len(m.locks) > 0 || len(m.waitingOn) > 0 {
		return fmt.Errorf("%w: txn manager has %d locked keys, %d waiters",
			snapshot.ErrNotQuiescent, len(m.locks), len(m.waitingOn))
	}
	*m = s
	return nil
}
