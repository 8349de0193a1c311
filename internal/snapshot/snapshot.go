// Package snapshot is the codec of the simulation's three checkpoint
// formats, each a byte-deterministic blob of one component's state. Two
// decode, because they are the durable state a power cut leaves behind: a
// drive's media (disk.Disk) and a fault plan's state (fault.Plan). The third,
// the kernel's scheduler state (sim.Env), is encode-only; the kernel's cut
// and pause equivalence tests compare its bytes at every probe. The encoding
// is a fixed little-endian stream behind a per-component header (magic,
// component kind, format version), with every map rendered in sorted key
// order, so two components in the same state produce byte-identical
// snapshots — the property the golden-digest tests compare on.
//
// Each format is written once, as a walk: a function that hands every
// snapshotted field, in stream order, to a Codec. Encode runs the walk over
// the component's own fields; Restore runs it under Decode, over a shadow the
// component then validates and adopts. The walk is the format — there is no
// second list of fields to drift from it.
//
// The package deliberately imports nothing from the rest of the repository,
// so internal/sim can use it for its kernel without an import cycle.
//
// Decoding is defensive by contract: feeding a Restore arbitrary or
// corrupted bytes must never panic — it returns an error wrapping ErrCorrupt
// (malformed stream), ErrMismatch (a snapshot of some other component or
// geometry), or ErrNotQuiescent (the target has operations in flight). This
// package's tests hold the codec to the no-panic half of that contract
// (every truncation, hostile lengths); FuzzSnapshotRestore in
// internal/crashexplore/stacks holds both Restores to it.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Sentinel errors of the Restore contract. Classify with errors.Is.
var (
	// ErrCorrupt means the byte stream is not a well-formed snapshot
	// (truncated, bad magic, trailing garbage, or an impossible length).
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrMismatch means a well-formed snapshot of the wrong component: a
	// different kind, format version, or component identity (e.g. a snapshot
	// of one drive restored into a drive with different geometry).
	ErrMismatch = errors.New("snapshot: component mismatch")
	// ErrNotQuiescent means a component has operations in flight that a
	// data snapshot cannot carry, so it cannot adopt one.
	ErrNotQuiescent = errors.New("snapshot: not quiescent")
)

// magic marks the start of every component snapshot.
const magic = 0x544C5353 // "TLSS"

// Codec carries one snapshot in one direction. Every primitive takes a
// pointer: encoding appends the value it points at, decoding stores the next
// value of the input there. After the first decode failure the error sticks
// and every primitive leaves its target alone, so a walk runs straight
// through and Decode reports the failure once at the end.
type Codec struct {
	decoding bool
	buf      []byte
	off      int
	err      error
}

// Encode runs walk over a fresh snapshot of the given component kind and
// format version and returns the bytes. A walk that fails while encoding is
// a bug in the component, and panics.
func Encode(kind string, version uint16, walk func(*Codec)) []byte {
	c := &Codec{}
	c.header(kind, version)
	walk(c)
	if c.err != nil {
		panic(fmt.Sprintf("snapshot: encoding %s: %v", kind, c.err))
	}
	return c.buf
}

// Decode checks data's header against the expected kind and version, runs
// walk over the body and requires it to consume every byte. It returns
// ErrCorrupt for malformed bytes, ErrMismatch for a well-formed snapshot of
// another kind or version, or whatever the walk passed to Fail.
func Decode(data []byte, kind string, version uint16, walk func(*Codec)) error {
	c := &Codec{decoding: true, buf: data}
	if err := c.header(kind, version); err != nil {
		return err
	}
	walk(c)
	if c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return c.err
}

func (c *Codec) header(kind string, version uint16) error {
	m, gotKind, gotVer := uint32(magic), kind, version
	if c.decoding {
		m = 0 // a header too short to hold the magic has none
	}
	c.U32(&m)
	c.String(&gotKind)
	c.U16(&gotVer)
	switch {
	case !c.decoding:
		return nil
	case m != magic:
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	case c.err != nil:
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	case gotKind != kind || gotVer != version:
		return fmt.Errorf("%w: snapshot of %q v%d, want %q v%d", ErrMismatch, gotKind, gotVer, kind, version)
	}
	return nil
}

// Decoding reports the direction: true while a walk runs under Decode, when
// it must allocate what it decodes into and may validate what it read.
func (c *Codec) Decoding() bool { return c.decoding }

// Err returns the sticky error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records err — wrap ErrCorrupt or ErrMismatch — unless an earlier
// failure already stuck; every primitive after it is a no-op.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// next returns the n bytes a primitive works on: a new tail of the output
// when encoding, the next n input bytes when decoding, nil after a failure.
func (c *Codec) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if !c.decoding {
		c.buf = slices.Grow(c.buf, n)
		c.buf = c.buf[:len(c.buf)+n]
		return c.buf[len(c.buf)-n:]
	}
	if n < 0 || n > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, c.off))
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// U8 carries one byte.
func (c *Codec) U8(v *uint8) {
	switch b := c.next(1); {
	case b == nil:
	case c.decoding:
		*v = b[0]
	default:
		b[0] = *v
	}
}

// U16 carries a little-endian uint16.
func (c *Codec) U16(v *uint16) {
	switch b := c.next(2); {
	case b == nil:
	case c.decoding:
		*v = binary.LittleEndian.Uint16(b)
	default:
		binary.LittleEndian.PutUint16(b, *v)
	}
}

// U32 carries a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	switch b := c.next(4); {
	case b == nil:
	case c.decoding:
		*v = binary.LittleEndian.Uint32(b)
	default:
		binary.LittleEndian.PutUint32(b, *v)
	}
}

// U64 carries a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	switch b := c.next(8); {
	case b == nil:
	case c.decoding:
		*v = binary.LittleEndian.Uint64(b)
	default:
		binary.LittleEndian.PutUint64(b, *v)
	}
}

// I64 carries any int64-shaped value (time.Duration, sim.Time) as a
// little-endian int64.
func I64[T ~int64](c *Codec, v *T) {
	u := uint64(*v)
	c.U64(&u)
	*v = T(u)
}

// Int carries an int as int64.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	I64(c, &x)
	*v = int(x)
}

// Bool carries a boolean as one byte; any byte other than 0 or 1 is a
// corruption.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.Fail(fmt.Errorf("%w: boolean %d at offset %d", ErrCorrupt, b, c.off-1))
	}
	*v = b == 1
}

// chunk carries a length prefix and returns the bytes it covers.
func (c *Codec) chunk(n int) []byte {
	u := uint32(n)
	c.U32(&u)
	return c.next(int(u))
}

// View carries a length-prefixed byte slice; decoding aliases the input, for
// walks that copy it somewhere of their own at once.
func (c *Codec) View(v *[]byte) {
	switch b := c.chunk(len(*v)); {
	case b == nil:
	case c.decoding:
		*v = b
	default:
		copy(b, *v)
	}
}

// String carries a length-prefixed string.
func (c *Codec) String(v *string) {
	switch b := c.chunk(len(*v)); {
	case b == nil:
	case c.decoding:
		*v = string(b)
	default:
		copy(b, *v)
	}
}

// Len carries a collection length: it encodes n, or returns the decoded
// length. A decoded length that could not possibly fit in what is left of
// the input (at least one byte per element) is a corruption, which keeps
// hostile lengths from driving huge allocations before the input runs dry.
func (c *Codec) Len(n int) int {
	u := uint32(n)
	c.U32(&u)
	if !c.decoding {
		return n
	}
	if c.err == nil && int(u) > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("%w: %d elements claimed at offset %d", ErrCorrupt, u, c.off))
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Slice carries a length-prefixed slice, elem walking each element in
// order; decoding allocates a fresh slice of the decoded length.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := c.Len(len(*s))
	if c.decoding {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// SortedMap carries a map keyed by non-negative int64s (LBAs, command
// ordinals, process ids): the entry count, then each key followed by entry's
// walk of its value, in increasing key order. Decoding builds a fresh map and
// rejects keys that are negative, repeated or out of order as ErrCorrupt:
// they are not a stream SortedMap wrote, and adopting one would let a
// repeated key silently win. entry sees a zero value to fill when decoding.
func SortedMap[V any](c *Codec, m *map[int64]V, entry func(c *Codec, key int64, v *V)) {
	if !c.decoding {
		keys := make([]int64, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.Len(len(keys))
		for _, k := range keys {
			v := (*m)[k]
			I64(c, &k)
			entry(c, k, &v)
		}
		return
	}
	n := c.Len(0)
	*m = make(map[int64]V, n)
	for i, prev := 0, int64(-1); i < n && c.err == nil; i++ {
		var k int64
		var v V
		I64(c, &k)
		if k <= prev {
			c.Fail(fmt.Errorf("%w: key %d after key %d", ErrCorrupt, k, prev))
		}
		prev = k
		entry(c, k, &v)
		(*m)[k] = v
	}
}
