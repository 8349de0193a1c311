// Package txn is a determinism fixture for the map-range → scheduling-sink
// rule, modelled on the lock release that made TPC-C at concurrency 4 differ
// from run to run: waiters on different keys woken at one instant run in the
// order they were woken, so waking them in map order is a run-dependent
// schedule. The fixture imports the real kernel.
package txn

import (
	"sort"

	"tracklog/internal/sim"
)

type waiter struct{ ev *sim.Event }

type manager struct {
	env   *sim.Env
	queue map[string][]*waiter
	slots map[string]*sim.Resource
	conds map[string]*sim.Cond
}

type txn struct {
	m     *manager
	locks map[string]int
}

// releaseAll is the bug as it was: the range decides who wakes first.
func (t *txn) releaseAll() {
	for key := range t.locks { // want `map iteration order is randomized, but this range body reaches scheduling call sim\.Event\.Trigger`
		for _, w := range t.m.queue[key] {
			w.ev.Trigger()
		}
		delete(t.m.queue, key)
	}
}

// The other scheduling calls: spawning, signalling, handing a slot on.
func (m *manager) spawnAll(work map[string]func(*sim.Proc)) {
	for name, fn := range work { // want `reaches scheduling call sim\.Env\.Go`
		m.env.Go(name, fn)
	}
}

func (m *manager) wakeAll() {
	for _, c := range m.conds { // want `reaches scheduling call sim\.Cond\.Broadcast`
		c.Broadcast()
	}
}

func (m *manager) freeAll() {
	for _, r := range m.slots { // want `reaches scheduling call sim\.Resource\.Release`
		r.Release()
	}
}

// releaseSorted is the fix: collect, sort, then wake in key order.
func (t *txn) releaseSorted() {
	keys := make([]string, 0, len(t.locks))
	for key := range t.locks {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		for _, w := range t.m.queue[key] {
			w.ev.Trigger()
		}
	}
}

// waiting only reads: a reduction over a map schedules nothing.
func (m *manager) waiting() int {
	n := 0
	for _, q := range m.queue {
		n += len(q)
	}
	return n
}
