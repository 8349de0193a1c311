package sim

import (
	"bytes"
	"fmt"
	"sort"

	"tracklog/internal/snapshot"
)

const (
	envSnapKind  = "sim.Env"
	randSnapKind = "sim.Rand"
)

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
		if c.Decoding() {
			q.proc = new(Proc)
		}
		snapshot.I64(c, &q.at)
		snapshot.I64(c, &q.seq)
		snapshot.I64(c, &q.proc.id)
	})
	snapshot.SortedMap(c, &e.procs, func(c *snapshot.Codec, id int64, p **Proc) {
		if c.Decoding() {
			*p = &Proc{id: id}
		}
		state := uint8((*p).state)
		c.String(&(*p).name)
		c.U8(&state)
		(*p).state = procState(state)
		c.Bool(&(*p).daemon)
	})
}

// Snapshot encodes the kernel's scheduler state. Goroutine stacks cannot be
// serialized, so a kernel is restored by deterministic replay — rebuild the
// world from its builder, run to the same probe index — and this snapshot is
// the fingerprint that proves the replay converged: Restore verifies byte
// equality against the replayed kernel rather than adopting state.
func (e *Env) Snapshot() []byte { return snapshot.Encode(envSnapKind, 1, e.walk) }

// Restore verifies that this kernel — rebuilt by deterministic replay — has
// converged to the snapshotted state, byte for byte. Malformed bytes are
// ErrCorrupt (the walk decodes them into a throw-away kernel to tell); a
// divergence (a source of nondeterminism in the replayed world) is reported
// as ErrMismatch with both digests. On success the kernel is already in the
// snapshotted state and nothing is adopted.
func (e *Env) Restore(data []byte) error {
	var shadow Env
	if err := snapshot.Decode(data, envSnapKind, 1, shadow.walk); err != nil {
		return err
	}
	if cur := e.Snapshot(); !bytes.Equal(cur, data) {
		return fmt.Errorf("%w: replayed kernel digest %016x, snapshot %016x — replay diverged",
			snapshot.ErrMismatch, snapshot.Digest(cur), snapshot.Digest(data))
	}
	return nil
}

// walk is the generator's snapshot format.
func (r *Rand) walk(c *snapshot.Codec) {
	c.U64(&r.state)
	c.Int(&r.nurC)
}

// Snapshot encodes the generator state; unlike the kernel, a Rand restores
// by adoption.
func (r *Rand) Snapshot() []byte { return snapshot.Encode(randSnapKind, 1, r.walk) }

// Restore adopts a generator state produced by Snapshot.
func (r *Rand) Restore(data []byte) error {
	var s Rand
	if err := snapshot.Decode(data, randSnapKind, 1, s.walk); err != nil {
		return err
	}
	if s.state == 0 {
		return fmt.Errorf("%w: zero xorshift state", snapshot.ErrCorrupt)
	}
	*r = s
	return nil
}
