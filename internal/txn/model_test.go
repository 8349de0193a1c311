package txn

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"tracklog/internal/sim"
)

// The reference lock table: plain slices, nothing recycled, every rule spelt
// out once. A process tells it what it is about to ask the manager, and the
// manager must answer the same: grant now, wait, or abort as deadlock victim.

type refHold struct {
	id   int64
	mode LockMode
}

type refKey struct{ holders, queue []refHold }

type refTable struct {
	keys    map[string]*refKey
	waiting map[int64]string // blocked transaction -> key
}

type verdict int

const (
	granted verdict = iota
	waits
	deadlock
)

// held returns the mode id holds the key in, 0 when it does not.
func (k *refKey) held(id int64) LockMode {
	for _, h := range k.holders {
		if h.id == id {
			return h.mode
		}
	}
	return 0
}

func (k *refKey) compatible(id int64, mode LockMode) bool {
	for _, h := range k.holders {
		if h.id != id && (mode == Exclusive || h.mode == Exclusive) {
			return false
		}
	}
	return true
}

func (k *refKey) drop(id int64) {
	k.holders = slices.DeleteFunc(k.holders, func(h refHold) bool { return h.id == id })
}

// reaches reports whether from waits on target, through the holders of the
// keys waited for.
func (r *refTable) reaches(from, target int64, seen map[int64]bool) bool {
	key, blocked := r.waiting[from]
	if from == target || seen[from] || !blocked {
		return from == target
	}
	seen[from] = true
	for _, h := range r.keys[key].holders {
		if r.reaches(h.id, target, seen) {
			return true
		}
	}
	return false
}

// request records id asking for key in mode and returns what must happen.
func (r *refTable) request(id int64, key string, mode LockMode) verdict {
	k := r.keys[key]
	if k == nil {
		k = &refKey{}
		r.keys[key] = k
	}
	held := k.held(id)
	if held == Exclusive || held == mode {
		return granted
	}
	if len(k.queue) == 0 && k.compatible(id, mode) {
		k.drop(id)
		k.holders = append(k.holders, refHold{id, mode})
		return granted
	}
	// An upgrade behind a queued request: the queue waits for id's hold.
	if held != 0 && len(k.queue) > 0 {
		return deadlock
	}
	for _, h := range k.holders {
		if h.id != id && r.reaches(h.id, id, map[int64]bool{}) {
			return deadlock
		}
	}
	k.queue = append(k.queue, refHold{id, mode})
	r.waiting[id] = key
	return waits
}

// release drops everything id holds and grants each key's longest compatible
// prefix of waiters.
func (r *refTable) release(id int64) {
	for name, k := range r.keys {
		k.drop(id)
		for len(k.queue) > 0 && k.compatible(k.queue[0].id, k.queue[0].mode) {
			k.drop(k.queue[0].id)
			k.holders = append(k.holders, k.queue[0])
			delete(r.waiting, k.queue[0].id)
			k.queue = k.queue[1:]
		}
		if len(k.holders) == 0 && len(k.queue) == 0 {
			delete(r.keys, name)
		}
	}
}

// TestLockTableModel drives the manager's lock table and the reference in
// lockstep: six processes lock, upgrade, commit and abort over eight keys with
// random think times. The manager must grant, park and pick deadlock victims
// exactly as the reference does (so grants are FIFO per key: a waiter woken
// out of turn finds the reference has not granted it), no two incompatible
// holders may ever be observed, and at the end the table is empty and
// snapshots. Entries come and go hundreds of times per seed, so a recycled
// one carrying a stale holder or waiter shows as a grant the reference parks,
// or a park the reference grants. An upgrade requested while another
// transaction is queued for the key is a deadlock victim: the queue's head
// waits for the upgrader's own hold.
func TestLockTableModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		if err := runLockModel(seed, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// runLockModel runs one seed; inspect, if set, sees the manager at the end.
func runLockModel(seed uint64, inspect func(*Manager)) (err error) {
	const procs, keys, ops = 6, 8, 120
	env := sim.NewEnv()
	defer env.Close()
	m := NewManager(env, nil) // nothing is written, so nothing is logged
	ref := &refTable{keys: map[string]*refKey{}, waiting: map[int64]string{}}
	observed := map[string]map[int64]LockMode{} // grants the manager has returned
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	forget := func(id int64) {
		for _, holders := range observed {
			delete(holders, id)
		}
	}
	finished := 0
	for i := 0; i < procs; i++ {
		rng := sim.NewRand(seed*1000 + uint64(i))
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			defer func() { finished++ }()
			tx := m.Begin()
			for n := 0; n < ops && err == nil; n++ {
				p.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				op := rng.Intn(10)
				if op < 8 {
					key, mode := lk(rng.Intn(keys)), LockMode(1+rng.Intn(2))
					want := ref.request(tx.ID(), key, mode)
					parked := m.Stats().LockWaits
					got := tx.Lock(p, key, mode)
					switch {
					case (want == deadlock) != errors.Is(got, ErrDeadlock), want != deadlock && got != nil:
						fail("txn %d %s mode %d: got %v, reference says %d", tx.ID(), key, mode, got, want)
					case want == granted && m.Stats().LockWaits != parked:
						fail("txn %d %s mode %d: parked, reference grants at once", tx.ID(), key, mode)
					case want == waits && ref.keys[key].held(tx.ID()) < mode:
						fail("txn %d %s mode %d: woken before the reference granted it", tx.ID(), key, mode)
					}
					if got == nil {
						if observed[key] == nil {
							observed[key] = map[int64]LockMode{}
						}
						observed[key][tx.ID()] = max(mode, observed[key][tx.ID()])
						for other, omode := range observed[key] {
							if other != tx.ID() && (omode == Exclusive || observed[key][tx.ID()] == Exclusive) {
								fail("%s held by %d (mode %d) and %d (mode %d)", key, other, omode, tx.ID(), mode)
							}
						}
						continue
					}
					// Deadlock victim: the manager aborted tx.
					ref.release(tx.ID())
					forget(tx.ID())
					tx = m.Begin()
					continue
				}
				ref.release(tx.ID())
				forget(tx.ID())
				if op == 8 {
					if cerr := tx.Commit(p); cerr != nil {
						fail("commit: %v", cerr)
					}
				} else {
					tx.Abort(p)
				}
				if tx.Lock(p, lk(0), Shared) != ErrDone {
					fail("finished txn %d still locks", tx.ID())
				}
				tx = m.Begin()
			}
			ref.release(tx.ID())
			forget(tx.ID())
			tx.Abort(p)
		})
	}
	env.Run()
	switch {
	case err != nil:
	case finished != procs:
		fail("%d of %d processes parked for ever", procs-finished, procs)
	case len(m.locks) != 0 || len(m.waitingOn) != 0 || len(ref.keys) != 0:
		fail("at quiescence: %d locked keys, %d waiters, reference %d keys", len(m.locks), len(m.waitingOn), len(ref.keys))
	default:
		m.Snapshot() // panics unless quiescent
	}
	if s := m.Stats(); err == nil && (s.LockWaits == 0 || s.Deadlocks == 0) {
		fail("%d waits and %d deadlocks: the seed tests nothing", s.LockWaits, s.Deadlocks)
	}
	if inspect != nil {
		inspect(m)
	}
	return err
}
