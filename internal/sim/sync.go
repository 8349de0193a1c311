package sim

// Event is a one-shot completion signal. Processes that Wait before Trigger
// are resumed (in FIFO order) at the instant of the Trigger; Wait after
// Trigger returns immediately. The zero value is not usable: create events
// with NewEvent, or Init one embedded by value in a larger struct. An Event
// must not be copied once a process waits on it.
type Event struct {
	env   *Env
	fired bool
	at    Time
	// first is the earliest waiter, held inline: nearly every event (a
	// request's completion, a process's exit) has exactly one, so waiting
	// allocates nothing. more holds any later waiters, in arrival order.
	first *Proc
	more  []*Proc
}

// NewEvent returns an untriggered event bound to env.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Init resets ev to an untriggered event bound to env.
func (ev *Event) Init(env *Env) { *ev = Event{env: env} }

// Fired reports whether the event has been triggered.
func (ev *Event) Fired() bool { return ev.fired }

// At returns the virtual time the event fired (zero if it has not).
func (ev *Event) At() Time { return ev.at }

// Trigger fires the event, resuming all waiters at the current instant.
// Triggering an already-fired event is a no-op.
func (ev *Event) Trigger() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.at = ev.env.now
	if ev.first != nil {
		ev.env.ready(ev.first)
		for _, p := range ev.more {
			ev.env.ready(p)
		}
		ev.first, ev.more = nil, nil
	}
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	if ev.first == nil {
		ev.first = p
	} else {
		ev.more = append(ev.more, p)
	}
	p.park()
}

// FIFO is a first-in first-out list popped by a head index, so a pop neither
// copies the list down nor gives up the front of the backing array the way
// items = items[1:] does: a queue in steady state stops allocating once the
// array has grown to its peak depth. It is plain data with no kernel
// behaviour; the zero value is an empty list.
type FIFO[T any] struct {
	items []T // items[head:] are live, items[:head] already popped and zeroed
	head  int
}

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Live returns the queued items, oldest first. The slice aliases the list
// and is valid until the next Push, Pop or Reset.
func (f *FIFO[T]) Live() []T { return f.items[f.head:] }

// Reset replaces the contents with items, oldest first, taking ownership of
// the slice.
func (f *FIFO[T]) Reset(items []T) { f.items, f.head = items, 0 }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	// A full array at least half popped slides its live tail down instead of
	// growing: the copy is paid for by the pops that freed the space, which
	// keeps Push amortised O(1) however long the list stays non-empty.
	if f.head > 0 && len(f.items) == cap(f.items) && f.head >= len(f.items)/2 {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
}

// Pop removes and returns the oldest item; the list must not be empty.
func (f *FIFO[T]) Pop() T {
	var zero T
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
	return v
}

// Slab hands out zeroed *T carved from chunks, so a layer that keeps many
// objects of one type allocates once a chunk, not once an object. A new chunk
// holds ChunkLen(objects handed out so far). Nothing is freed singly: a chunk
// is garbage once none of its objects is referenced, so one object still held
// keeps its whole chunk. Like FIFO it is plain data; the zero value is an
// empty slab.
type Slab[T any] struct {
	chunk []T // the newest chunk's objects not yet handed out
	n     int // objects handed out
}

// New returns a zeroed object from the newest chunk, starting a chunk when
// that one is used up.
func (s *Slab[T]) New() *T {
	if len(s.chunk) == 0 {
		s.chunk = make([]T, ChunkLen(s.n))
	}
	x := &s.chunk[0]
	s.chunk = s.chunk[1:]
	s.n++
	return x
}

// Carve returns n zeroed objects side by side in a chunk of exactly n, for a
// caller that fills a known number at once (a copy), and counts them as
// handed out, so the next chunk New starts is sized as if New had made them.
func (s *Slab[T]) Carve(n int) []T {
	s.n += n
	return make([]T, n)
}

// ChunkLen is how many objects a new chunk holds when n were handed out
// before it: as many again, within [8, 128], so a small world (a
// crash-explorer branch, a test fixture) wastes little and a busy one
// allocates once per 128. Slab follows it, and so do the byte slabs that
// carve variable-length pieces.
func ChunkLen(n int) int { return min(max(n, 8), 128) }

// Cond is a reusable condition: processes Wait on it and other processes
// Signal (wake one, FIFO) or Broadcast (wake all). Unlike sync.Cond there is
// no associated lock — the simulation is single-threaded, so the usual
// "recheck the predicate in a loop" discipline is all that is needed.
type Cond struct {
	env     *Env
	waiters FIFO[*Proc]
}

// NewCond returns a condition bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until a Signal or Broadcast wakes it. Callers must re-check
// their predicate after waking.
func (c *Cond) Wait(p *Proc) {
	c.waiters.Push(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.Len() > 0 {
		c.env.ready(c.waiters.Pop())
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	for c.waiters.Len() > 0 {
		c.env.ready(c.waiters.Pop())
	}
}

// Resource is a counting semaphore with FIFO admission, used to model
// exclusive hardware (capacity 1 models a disk arm).
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  FIFO[*Proc]
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: Resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity}
}

// Acquire blocks p until a unit of the resource is free, then takes it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.inUse++
		return
	}
	r.waiters.Push(p)
	p.park()
	// The releaser incremented inUse on our behalf before waking us.
}

// Release frees one unit, handing it directly to the longest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle Resource")
	}
	if r.waiters.Len() > 0 {
		r.env.ready(r.waiters.Pop())
		return // unit passes to the waiter; inUse unchanged
	}
	r.inUse--
}

// InUse returns the number of held units.
func (r *Resource) InUse() int { return r.inUse }
