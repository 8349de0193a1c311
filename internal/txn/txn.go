// Package txn implements a transaction manager in the style of the paper's
// Berkeley DB/LIBTP substrate: strict two-phase row locking with
// waits-for-graph deadlock detection, deferred writes, and redo logging
// through a write-ahead log whose commit discipline (O_SYNC per commit vs
// group commit) is the variable of the paper's Table 2.
package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
	// ErrLockName refuses a lock name longer than lockNameWidth bytes.
	ErrLockName = errors.New("txn: lock name too long")
)

// lockNameWidth is the longest lock name the table keeps. TPC-C's longest,
// an order line's key, is 21 bytes.
const lockNameWidth = 31

// lockName is a lock's name held in place, so keying the table by it copies
// the caller's string and allocates nothing.
type lockName struct {
	n uint8
	b [lockNameWidth]byte
}

func (k *lockName) bytes() []byte { return k.b[:k.n] }

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

// hold is one transaction's grip on a key.
type hold struct {
	txnID int64
	mode  LockMode
}

// lockState is the per-key lock table entry: the few holders, and the parked
// requests in arrival order. An emptied entry is kept for the next new key.
type lockState struct {
	name    lockName // the entry's key in the table
	holders []hold
	queue   sim.FIFO[*Txn]
}

// Manager coordinates transactions over one write-ahead log.
type Manager struct {
	env    *sim.Env
	log    *wal.Log
	nextID int64
	locks  map[lockName]*lockState
	// waitingOn maps a blocked transaction to the entry it waits on, for
	// deadlock detection.
	waitingOn map[int64]*lockState
	stats     Stats
	// Recycled memory, not state: emptied lock table entries and the emptied
	// buffers of finished transactions.
	freeLocks sim.FIFO[*lockState]
	spare     sim.FIFO[buffers]
	// txns is where Begin carves each Txn. A Txn is never reused, so a
	// finished one keeps answering ErrDone.
	txns sim.Slab[Txn]
}

// NewManager returns a manager logging through log.
func NewManager(env *sim.Env, log *wal.Log) *Manager {
	return &Manager{
		env:       env,
		log:       log,
		locks:     make(map[lockName]*lockState),
		waitingOn: make(map[int64]*lockState),
	}
}

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Log returns the manager's write-ahead log.
func (m *Manager) Log() *wal.Log { return m.log }

// writeOp is a deferred tree modification: redo[off:end] is its redo record.
type writeOp struct {
	tree     *kvdb.Tree
	off, end int
}

// buffers is the memory a transaction fills, handed on when it finishes: a
// transaction in steady state allocates nothing of its own.
type buffers struct {
	locks  []*lockState // the entries of the keys held
	writes []writeOp
	// redo holds the deferred writes as the records that will be logged: the
	// one copy of a written key and row the transaction keeps.
	redo []byte
	row  []byte // what the last Get or GetForUpdate returned
}

// Txn is one transaction. Use it from a single simulated process.
type Txn struct {
	id int64
	m  *Manager
	buffers
	// The one lock request t can be parked on.
	wantMode LockMode
	granted  sim.Event
	done     bool
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.nextID++
	m.stats.Begun++
	t := m.txns.New()
	t.id, t.m = m.nextID, m
	if m.spare.Len() > 0 {
		t.buffers = m.spare.Pop()
	}
	return t
}

// ID returns the transaction identifier.
func (t *Txn) ID() int64 { return t.id }

// held returns the mode txn holds the key in, 0 when it holds none.
func (ls *lockState) held(txnID int64) LockMode {
	for _, h := range ls.holders {
		if h.txnID == txnID {
			return h.mode
		}
	}
	return 0
}

// compatible reports whether txn can hold key in mode given current holders.
func (ls *lockState) compatible(txnID int64, mode LockMode) bool {
	for _, h := range ls.holders {
		// Self does not conflict: an upgrade is checked against the others.
		if h.txnID != txnID && (mode == Exclusive || h.mode == Exclusive) {
			return false
		}
	}
	return true
}

// grant makes txn a holder in mode, or raises the hold it has to mode.
func (ls *lockState) grant(txnID int64, mode LockMode) {
	for i := range ls.holders {
		if ls.holders[i].txnID == txnID {
			ls.holders[i].mode = mode
			return
		}
	}
	ls.holders = append(ls.holders, hold{txnID, mode})
}

// Lock acquires key in the given mode, blocking until granted. It returns
// ErrDeadlock (and aborts t) if waiting would create a cycle, and ErrLockName
// (changing nothing) if key is longer than lockNameWidth bytes. The table
// copies the name: key may live in a buffer the caller reuses.
func (t *Txn) Lock(p *sim.Proc, key string, mode LockMode) error {
	if t.done {
		return ErrDone
	}
	if len(key) > lockNameWidth {
		return fmt.Errorf("%w: %d bytes, at most %d", ErrLockName, len(key), lockNameWidth)
	}
	name := lockName{n: uint8(len(key))}
	copy(name.b[:], key)
	m := t.m
	ls := m.locks[name]
	if ls == nil {
		if m.freeLocks.Len() > 0 {
			ls = m.freeLocks.Pop()
		} else {
			ls = new(lockState)
		}
		ls.name = name
		m.locks[name] = ls
	}
	held := ls.held(t.id)
	if held == Exclusive || held == mode {
		return nil // already strong enough
	}
	// Grant immediately when compatible and no earlier waiter needs the lock
	// (honor FIFO among waiters).
	if ls.queue.Len() == 0 && ls.compatible(t.id, mode) {
		ls.grant(t.id, mode)
	} else {
		// An upgrade behind a queued request closes a cycle waitsOn cannot
		// see: the queue's head conflicts with every hold, t's included, and
		// FIFO would park t behind it.
		if held != 0 && ls.queue.Len() > 0 || m.waitsOn(ls, t.id, map[int64]bool{t.id: true}) {
			m.stats.Deadlocks++
			t.Abort(p)
			return ErrDeadlock
		}
		t.wantMode = mode
		t.granted.Init(m.env)
		ls.queue.Push(t)
		m.waitingOn[t.id] = ls
		m.stats.LockWaits++
		start := p.Now()
		t.granted.Wait(p) // whoever releases the key grants, then wakes
		m.stats.LockWaitTime += p.Now().Sub(start)
		delete(m.waitingOn, t.id)
	}
	if held == 0 {
		t.locks = append(t.locks, ls)
	}
	return nil
}

// waitsOn reports whether some holder of ls not yet seen waits for txn: it is
// parked on a key that txn holds, or whose holders wait for txn in turn.
// Parking txn on ls would then close a waits-for cycle.
func (m *Manager) waitsOn(ls *lockState, txnID int64, seen map[int64]bool) bool {
	for _, h := range ls.holders {
		if seen[h.txnID] {
			continue
		}
		seen[h.txnID] = true
		w, waiting := m.waitingOn[h.txnID]
		if waiting && (w.held(txnID) != 0 || m.waitsOn(w, txnID, seen)) {
			return true
		}
	}
	return false
}

// releaseAll marks t done, frees every lock it holds and grants waiting
// requests, in key order: waiters on different keys wake at one instant, and
// the order of their wake-ups is the order they run in. t's buffers go to
// the manager.
func (t *Txn) releaseAll() {
	m := t.m
	t.done = true
	slices.SortFunc(t.locks, func(a, b *lockState) int { return bytes.Compare(a.name.bytes(), b.name.bytes()) })
	for _, ls := range t.locks {
		ls.holders = slices.DeleteFunc(ls.holders, func(h hold) bool { return h.txnID == t.id })
		// Grant the longest-waiting compatible prefix.
		for ls.queue.Len() > 0 {
			w := ls.queue.Live()[0]
			if !ls.compatible(w.id, w.wantMode) {
				break
			}
			ls.grant(w.id, w.wantMode)
			ls.queue.Pop()
			w.granted.Trigger()
		}
		if len(ls.holders) == 0 && ls.queue.Len() == 0 {
			delete(m.locks, ls.name)
			ls.name = lockName{}
			m.freeLocks.Push(ls)
		}
	}
	m.spare.Push(buffers{t.locks[:0], t.writes[:0], t.redo[:0], t.row[:0]})
	t.buffers = buffers{}
}

// read returns the value of (tag, key) as t sees it, its own buffered writes
// first (newest first), then the tree, under a lock in mode. The value is
// copied into t's row buffer, which the next read overwrites.
func (t *Txn) read(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string, mode LockMode) ([]byte, error) {
	if t.done {
		return nil, ErrDone
	}
	if err := t.Lock(p, lockKey, mode); err != nil {
		return nil, err
	}
	for i := len(t.writes) - 1; i >= 0; i-- {
		wtag, del, wkey, value, _, _ := decodeRedo(t.redo[t.writes[i].off:t.writes[i].end])
		if wtag != tag || !bytes.Equal(wkey, key) {
			continue
		}
		if del {
			return nil, kvdb.ErrNotFound
		}
		t.row = append(t.row[:0], value...)
		return t.row, nil
	}
	var err error
	if t.row, err = tree.GetAppend(p, t.row[:0], key); err != nil {
		return nil, err
	}
	return t.row, nil
}

// Get reads (tag, key) from tree under a shared lock, observing the
// transaction's own buffered writes. The returned row is a copy the caller
// may change, valid until the next Get or GetForUpdate on this transaction
// or until it commits or aborts.
func (t *Txn) Get(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) ([]byte, error) {
	return t.read(p, tree, tag, key, lockKey, Shared)
}

// GetForUpdate reads under an exclusive lock; the row is Get's.
func (t *Txn) GetForUpdate(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) ([]byte, error) {
	return t.read(p, tree, tag, key, lockKey, Exclusive)
}

// write buffers one tree modification under an exclusive lock as its redo
// record, which copies key and value: both are the caller's to reuse.
func (t *Txn) write(p *sim.Proc, tree *kvdb.Tree, tag uint16, del bool, key, value []byte, logical int, lockKey string) error {
	if t.done {
		return ErrDone
	}
	if err := t.Lock(p, lockKey, Exclusive); err != nil {
		return err
	}
	off := len(t.redo)
	t.redo = appendRedo(t.redo, tag, del, key, value, logical)
	t.writes = append(t.writes, writeOp{tree, off, len(t.redo)})
	return nil
}

// Put buffers an insert/update of (tag, key) under an exclusive lock; it is
// applied at commit, after the redo record is durable.
func (t *Txn) Put(p *sim.Proc, tree *kvdb.Tree, tag uint16, key, value []byte, logical int, lockKey string) error {
	return t.write(p, tree, tag, false, key, value, logical, lockKey)
}

// Delete buffers a deletion.
func (t *Txn) Delete(p *sim.Proc, tree *kvdb.Tree, tag uint16, key []byte, lockKey string) error {
	return t.write(p, tree, tag, true, key, nil, 0, lockKey)
}

// appendRedo appends the redo log record for one write to b. The record is
// padded to the row's logical width so the log fills at the same rate as a
// production system writing full rows.
func appendRedo(b []byte, tag uint16, del bool, key, value []byte, logical int) []byte {
	size := 8 + len(key) + max(len(value), logical)
	b = slices.Grow(b, size)
	rec := b[len(b) : len(b)+size]
	clear(rec) // a recycled buffer: the spare header byte and the padding are zero
	binary.LittleEndian.PutUint16(rec, tag)
	if del {
		rec[2] = 1
	}
	binary.LittleEndian.PutUint16(rec[3:], uint16(len(key)))
	binary.LittleEndian.PutUint16(rec[5:], uint16(len(value)))
	copy(rec[8:], key)
	copy(rec[8+len(key):], value)
	return b[:len(b)+size]
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
		if lsn, err = t.m.log.Append(p, t.redo[w.off:w.end]); err != nil {
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
		_, del, key, value, logical, _ := decodeRedo(t.redo[w.off:w.end])
		if del {
			if err := w.tree.Delete(p, key); err != nil && !errors.Is(err, kvdb.ErrNotFound) {
				panic(fmt.Sprintf("txn %d: applying delete after durable log: %v", t.id, err))
			}
			continue
		}
		if err := w.tree.Put(p, key, value, logical); err != nil {
			panic(fmt.Sprintf("txn %d: applying write after durable log: %v", t.id, err))
		}
	}
	t.m.stats.Committed++
	t.releaseAll()
	return nil
}

// Abort discards the transaction's buffered writes and releases its locks.
func (t *Txn) Abort(p *sim.Proc) {
	if t.done {
		return
	}
	t.m.stats.Aborted++
	t.releaseAll()
}
