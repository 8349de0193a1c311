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

// Snapshot encodes the kernel's scheduler state: clock, sequence counters,
// the pending event queue in (at, seq) order, and the process table in id
// order. Goroutine stacks cannot be serialized, so a kernel is restored by
// deterministic replay — rebuild the world from its builder, run to the same
// probe index — and this snapshot is the fingerprint that proves the replay
// converged: Restore verifies byte equality against the replayed kernel
// rather than adopting state.
func (e *Env) Snapshot() []byte {
	w := snapshot.NewWriter(envSnapKind, 1)
	w.I64(int64(e.now))
	w.I64(e.seq)
	w.I64(e.nextID)
	w.I64(e.probeSeq)
	w.Int(e.liveQueued)

	entries := append(eventQueue(nil), e.queue...)
	sort.Slice(entries, entries.less)
	w.U32(uint32(len(entries)))
	for _, q := range entries {
		w.I64(int64(q.at))
		w.I64(q.seq)
		w.I64(q.proc.id)
	}

	ids := make([]int64, 0, len(e.procs))
	for id := range e.procs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		p := e.procs[id]
		w.I64(p.id)
		w.String(p.name)
		w.U8(uint8(p.state))
		w.Bool(p.daemon)
	}
	return w.Bytes()
}

// Restore verifies that this kernel — rebuilt by deterministic replay — has
// converged to the snapshotted state, byte for byte. A divergence (a source
// of nondeterminism in the replayed world) is reported as ErrMismatch with
// both digests; malformed bytes are ErrCorrupt. On success the kernel is
// already in the snapshotted state and nothing is adopted.
func (e *Env) Restore(data []byte) error {
	r, err := snapshot.NewReader(data, envSnapKind, 1)
	if err != nil {
		return err
	}
	r.I64() // now
	r.I64() // seq
	r.I64() // nextID
	r.I64() // probeSeq
	r.Int() // liveQueued
	nq := r.Len()
	for i := 0; i < nq; i++ {
		r.I64()
		r.I64()
		r.I64()
	}
	np := r.Len()
	for i := 0; i < np; i++ {
		r.I64()
		r.StringVal()
		r.U8()
		r.Bool()
	}
	if err := r.Close(); err != nil {
		return err
	}
	cur := e.Snapshot()
	if !bytes.Equal(cur, data) {
		return fmt.Errorf("%w: replayed kernel digest %016x, snapshot %016x — replay diverged",
			snapshot.ErrMismatch, snapshot.Digest(cur), snapshot.Digest(data))
	}
	return nil
}

// Snapshot encodes the generator state; unlike the kernel, a Rand restores
// by adoption.
func (r *Rand) Snapshot() []byte {
	w := snapshot.NewWriter(randSnapKind, 1)
	w.U64(r.state)
	w.Int(r.nurC)
	return w.Bytes()
}

// Restore adopts a generator state produced by Snapshot.
func (r *Rand) Restore(data []byte) error {
	rd, err := snapshot.NewReader(data, randSnapKind, 1)
	if err != nil {
		return err
	}
	state := rd.U64()
	nurC := rd.Int()
	if err := rd.Close(); err != nil {
		return err
	}
	if state == 0 {
		return fmt.Errorf("%w: zero xorshift state", snapshot.ErrCorrupt)
	}
	r.state = state
	r.nurC = nurC
	return nil
}
