package sim

import (
	"sort"

	"tracklog/internal/snapshot"
)

const envSnapKind = "sim.Env"

// walk is the kernel's snapshot format: clock, sequence counters, the pending
// event queue in (at, seq) order, and the process table in id order.
func (e *Env) walk(c *snapshot.Codec) {
	snapshot.I64(c, &e.now)
	snapshot.I64(c, &e.seq)
	snapshot.I64(c, &e.nextID)
	snapshot.I64(c, &e.probeSeq)
	c.Int(&e.liveQueued)
	queue := append([]queued(nil), e.queue...)
	sort.Slice(queue, eventQueue(queue).less)
	snapshot.Slice(c, &queue, func(c *snapshot.Codec, q *queued) {
		snapshot.I64(c, &q.at)
		snapshot.I64(c, &q.seq)
		snapshot.I64(c, &q.proc.id)
	})
	snapshot.SortedMap(c, &e.procs, func(c *snapshot.Codec, id int64, p **Proc) {
		state := uint8((*p).state)
		c.String(&(*p).name)
		c.U8(&state)
		c.Bool(&(*p).daemon)
	})
}

// Snapshot encodes the kernel's scheduler state. Goroutine stacks cannot be
// serialized, so nothing decodes it: it is the fingerprint that tells two
// kernels at the same instant of the same run apart from diverged ones.
func (e *Env) Snapshot() []byte { return snapshot.Encode(envSnapKind, 1, e.walk) }
