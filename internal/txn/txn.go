// Package txn implements a transaction manager in the style of the paper's
// Berkeley DB/LIBTP substrate: strict two-phase row locking with
// waits-for-graph deadlock detection, deferred writes, and redo logging
// through a write-ahead log whose commit discipline (O_SYNC per commit vs
// group commit) is the variable of the paper's Table 2.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
	"tracklog/internal/wal"
)

// Errors.
var (
	// ErrDeadlock aborts the requesting transaction: granting its lock
	// would close a waits-for cycle. Callers retry the transaction.
	ErrDeadlock = errors.New("txn: deadlock, transaction aborted")
	// ErrDone means the transaction has already committed or aborted.
	ErrDone = errors.New("txn: transaction already finished")
)

// LockMode is a lock strength.
type LockMode int

const (
	// Shared allows concurrent readers.
	Shared LockMode = iota + 1
	// Exclusive allows one writer.
	Exclusive
)

// Stats aggregates manager activity.
type Stats struct {
	Begun, Committed, Aborted int64
	// Deadlocks counts aborts due to waits-for cycles.
	Deadlocks int64
	// LockWaits counts blocking lock requests; LockWaitTime their total.
	LockWaits    int64
	LockWaitTime time.Duration
	// CommitIOTime is total time spent waiting on the log at commit.
	CommitIOTime time.Duration
}

// lockState is the per-key lock table entry.
type lockState struct {
	holders map[int64]LockMode
	queue   []*lockWaiter
}

// lockWaiter is a parked lock request.
type lockWaiter struct {
	txnID int64
	mode  LockMode
	ev    *sim.Event
}

// Manager coordinates transactions over one write-ahead log.
type Manager struct {
	env    *sim.Env
	log    *wal.Log
	nextID int64
	locks  map[string]*lockState
	// waitingOn maps a blocked transaction to the key it waits for, for
	// deadlock detection.
	waitingOn map[int64]string
	stats     Stats
}

// NewManager returns a manager logging through log.
func NewManager(env *sim.Env, log *wal.Log) *Manager {
	return &Manager{
		env:       env,
		log:       log,
		locks:     make(map[string]*lockState),
		waitingOn: make(map[int64]string),
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Log returns the manager's write-ahead log.
func (m *Manager) Log() *wal.Log { return m.log }

// writeOp is a deferred tree modification.
type writeOp struct {
	tree    *kvdb.Tree
	treeTag uint16
	key     []byte
	value   []byte
	logical int
	delete  bool
}

// Txn is one transaction. Use it from a single simulated process.
type Txn struct {
	id     int64
	m      *Manager
	locks  map[string]LockMode
	writes []writeOp
	done   bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.nextID++
	m.stats.Begun++
	return &Txn{id: m.nextID, m: m, locks: make(map[string]LockMode)}
}

// ID returns the transaction identifier.
func (t *Txn) ID() int64 { return t.id }

// compatible reports whether txn can hold key in mode given current holders.
func (ls *lockState) compatible(txnID int64, mode LockMode) bool {
	for holder, hmode := range ls.holders {
		if holder == txnID {
			continue // self; upgrade checked against others below
		}
		if mode == Exclusive || hmode == Exclusive {
			return false
		}
	}
	return true
}

// Lock acquires key in the given mode, blocking until granted. It returns
// ErrDeadlock (and aborts t) if waiting would create a cycle.
func (t *Txn) Lock(p *sim.Proc, key string, mode LockMode) error {
	if t.done {
		return ErrDone
	}
	if held, ok := t.locks[key]; ok && (held == Exclusive || held == mode) {
		return nil // already strong enough
	}
	m := t.m
	ls := m.locks[key]
	if ls == nil {
		ls = &lockState{holders: make(map[int64]LockMode)}
		m.locks[key] = ls
	}
	// Fast path: grant immediately when compatible and no earlier waiter
	// needs the lock (honor FIFO among waiters).
	if len(ls.queue) == 0 && ls.compatible(t.id, mode) {
		ls.holders[t.id] = mode
		t.locks[key] = mode
		return nil
	}
	// Would waiting deadlock?
	if m.wouldDeadlock(t.id, key) {
		m.stats.Deadlocks++
		t.Abort(p)
		return ErrDeadlock
	}
	w := &lockWaiter{txnID: t.id, mode: mode, ev: sim.NewEvent(m.env)}
	ls.queue = append(ls.queue, w)
	m.waitingOn[t.id] = key
	m.stats.LockWaits++
	start := p.Now()
	w.ev.Wait(p)
	m.stats.LockWaitTime += p.Now().Sub(start)
	delete(m.waitingOn, t.id)
	t.locks[key] = mode
	return nil
}

// wouldDeadlock checks whether txn waiting on key closes a waits-for cycle.
func (m *Manager) wouldDeadlock(txnID int64, key string) bool {
	// DFS over: waiter -> holders of the key it waits for.
	seen := map[int64]bool{}
	var stack []int64
	for holder := range m.locks[key].holders {
		if holder != txnID {
			stack = append(stack, holder)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txnID {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		k, waiting := m.waitingOn[cur]
		if !waiting {
			continue
		}
		for holder := range m.locks[k].holders {
			stack = append(stack, holder)
		}
	}
	return false
}

// releaseAll frees every lock held by t and grants waiting requests, in key
// order: waiters on different keys wake at one instant, and the order of
// their wake-ups is the order they run in.
func (t *Txn) releaseAll() {
	m := t.m
	keys := make([]string, 0, len(t.locks))
	for key := range t.locks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ls := m.locks[key]
		if ls == nil {
			continue
		}
		delete(ls.holders, t.id)
		// Grant the longest-waiting compatible prefix.
		for len(ls.queue) > 0 {
			w := ls.queue[0]
			if !ls.compatible(w.txnID, w.mode) {
				break
			}
			ls.holders[w.txnID] = w.mode
			ls.queue = ls.queue[1:]
			w.ev.Trigger()
		}
		if len(ls.holders) == 0 && len(ls.queue) == 0 {
			delete(m.locks, key)
		}
	}
	clear(t.locks)
}

// findWrite returns t's buffered write for (tag, key), newest first.
func (t *Txn) findWrite(tag uint16, key []byte) (writeOp, bool) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		w := t.writes[i]
		if w.treeTag == tag && string(w.key) == string(key) {
			return w, true
		}
	}
	return writeOp{}, false
}

// Get reads (tag, key) from tree under a shared lock, observing the
// transaction's own buffered writes.
func (t *Txn) Get(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) ([]byte, error) {
	if t.done {
		return nil, ErrDone
	}
	if err := t.Lock(p, lockKey, Shared); err != nil {
		return nil, err
	}
	if w, ok := t.findWrite(tag, key); ok {
		if w.delete {
			return nil, kvdb.ErrNotFound
		}
		return w.value, nil
	}
	return tree.Get(p, key)
}

// GetForUpdate reads under an exclusive lock.
func (t *Txn) GetForUpdate(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) ([]byte, error) {
	if t.done {
		return nil, ErrDone
	}
	if err := t.Lock(p, lockKey, Exclusive); err != nil {
		return nil, err
	}
	if w, ok := t.findWrite(tag, key); ok {
		if w.delete {
			return nil, kvdb.ErrNotFound
		}
		return w.value, nil
	}
	return tree.Get(p, key)
}

// Put buffers an insert/update of (tag, key) under an exclusive lock; it is
// applied at commit, after the redo record is durable.
func (t *Txn) Put(p *sim.Proc, tree *kvdb.Tree, tag uint16, key, value []byte, logical int, lockKey string) error {
	if t.done {
		return ErrDone
	}
	if err := t.Lock(p, lockKey, Exclusive); err != nil {
		return err
	}
	t.writes = append(t.writes, writeOp{tree: tree, treeTag: tag, key: key, value: value, logical: logical})
	return nil
}

// Delete buffers a deletion.
func (t *Txn) Delete(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) error {
	if t.done {
		return ErrDone
	}
	if err := t.Lock(p, lockKey, Exclusive); err != nil {
		return err
	}
	t.writes = append(t.writes, writeOp{tree: tree, treeTag: tag, key: key, delete: true})
	return nil
}

// encodeRedo builds the redo log record for one write. The record is padded
// to the row's logical width so the log fills at the same rate as a
// production system writing full rows.
func encodeRedo(w writeOp) []byte {
	size := 8 + len(w.key) + len(w.value)
	pad := 0
	if w.logical > len(w.value) {
		pad = w.logical - len(w.value)
	}
	rec := make([]byte, size+pad)
	binary.LittleEndian.PutUint16(rec, w.treeTag)
	if w.delete {
		rec[2] = 1
	}
	binary.LittleEndian.PutUint16(rec[3:], uint16(len(w.key)))
	binary.LittleEndian.PutUint16(rec[5:], uint16(len(w.value)))
	copy(rec[8:], w.key)
	copy(rec[8+len(w.key):], w.value)
	return rec
}

// Commit logs the transaction's writes, forces the log per the configured
// commit discipline, applies the writes to the trees, and releases locks.
func (t *Txn) Commit(p *sim.Proc) error {
	if t.done {
		return ErrDone
	}
	var lsn int64
	var err error
	for _, w := range t.writes {
		if lsn, err = t.m.log.Append(p, encodeRedo(w)); err != nil {
			t.Abort(p)
			return fmt.Errorf("txn %d: logging: %w", t.id, err)
		}
	}
	if len(t.writes) > 0 {
		start := p.Now()
		if err := t.m.log.Commit(p, lsn); err != nil {
			t.Abort(p)
			return fmt.Errorf("txn %d: commit: %w", t.id, err)
		}
		t.m.stats.CommitIOTime += p.Now().Sub(start)
	}
	for _, w := range t.writes {
		if w.delete {
			if err := w.tree.Delete(p, w.key); err != nil && !errors.Is(err, kvdb.ErrNotFound) {
				panic(fmt.Sprintf("txn %d: applying delete after durable log: %v", t.id, err))
			}
			continue
		}
		if err := w.tree.Put(p, w.key, w.value, w.logical); err != nil {
			panic(fmt.Sprintf("txn %d: applying write after durable log: %v", t.id, err))
		}
	}
	t.done = true
	t.m.stats.Committed++
	t.releaseAll()
	return nil
}

// Abort discards the transaction's buffered writes and releases its locks.
func (t *Txn) Abort(p *sim.Proc) {
	if t.done {
		return
	}
	t.done = true
	t.writes = nil
	t.m.stats.Aborted++
	t.releaseAll()
}
