// Package snapshot defines the world checkpoint contract of the simulation:
// a Snapshotter turns a component's durable/replayable state into a
// byte-deterministic blob and can adopt such a blob back. The encoding is a
// fixed little-endian stream behind a per-component header (magic, component
// kind, format version), with every map rendered in sorted key order, so two
// worlds in the same state produce byte-identical snapshots — the property
// the crash explorer and the restored-world CI gate compare on.
//
// The package deliberately imports nothing from the rest of the repository:
// internal/sim implements Snapshotter for its kernel types using this codec,
// and every layer above (disk, fault, trail, stddisk, raid, wal, txn) does
// the same, without import cycles.
//
// Restore is defensive by contract: feeding it arbitrary or corrupted bytes
// must never panic — it returns an error wrapping ErrCorrupt (malformed
// stream), ErrMismatch (a snapshot of some other component or geometry), or
// ErrNotQuiescent (a valid snapshot that cannot be adopted because it — or
// the target — has operations in flight; restore such worlds by replay
// instead). This package's tests hold the codec primitives to the no-panic
// half of that contract (every truncation, hostile lengths);
// FuzzSnapshotRestore in internal/crashexplore/stacks holds every
// component's Restore to it.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// ErrNotQuiescent means the snapshot (or the restore target) has
	// operations in flight that data-only restore cannot reproduce; restore
	// that world by deterministic replay instead.
	ErrNotQuiescent = errors.New("snapshot: not quiescent")
)

// Snapshotter is implemented by every component whose state participates in
// a world checkpoint. Snapshot must be a pure, byte-deterministic function
// of the component's state; Restore must never panic on arbitrary input.
type Snapshotter interface {
	Snapshot() []byte
	Restore(data []byte) error
}

// magic marks the start of every component snapshot.
const magic = 0x544C5353 // "TLSS"

// Writer builds one component snapshot. Create with NewWriter; the zero
// value is not usable.
type Writer struct {
	buf []byte
}

// NewWriter starts a snapshot of the given component kind and format
// version. The kind string names the component type (e.g. "disk.Disk") and
// is checked by NewReader on restore.
func NewWriter(kind string, version uint16) *Writer {
	w := &Writer{}
	w.U32(magic)
	w.String(kind)
	w.U16(version)
	return w
}

// Bytes returns the encoded snapshot.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a length-prefixed byte slice.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes one component snapshot. All accessors are nil-safe on the
// error path: after the first decode error every subsequent read returns a
// zero value, and Close reports the sticky error, so decoders can be written
// straight-line and check once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader opens a snapshot and checks its header against the expected
// component kind and version. It returns ErrCorrupt for malformed bytes and
// ErrMismatch for a well-formed snapshot of another kind or version.
func NewReader(data []byte, kind string, version uint16) (*Reader, error) {
	r := &Reader{buf: data}
	if r.U32() != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	gotKind := r.StringVal()
	gotVer := r.U16()
	if r.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if gotKind != kind || gotVer != version {
		return nil, fmt.Errorf("%w: snapshot of %q v%d, want %q v%d",
			ErrMismatch, gotKind, gotVer, kind, version)
	}
	return r, nil
}

// fail records the first decode error.
func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
}

// take returns the next n raw bytes, or nil after a failure.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as int64.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean; any byte other than 0 or 1 is a corruption.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail()
		return false
	}
}

// Bytes32 reads a length-prefixed byte slice (copied out of the stream).
func (r *Reader) Bytes32() []byte {
	b := r.View32()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// View32 reads a length-prefixed byte slice without copying it: the result
// aliases the snapshot bytes, for decoders that copy it somewhere of their
// own at once.
func (r *Reader) View32() []byte {
	return r.take(int(r.U32()))
}

// StringVal reads a length-prefixed string.
func (r *Reader) StringVal() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Len reads a collection length and bounds it against the remaining stream:
// a claimed length that could not possibly fit (at least one byte per
// element) is a corruption, which keeps hostile lengths from driving huge
// allocations before the stream runs dry.
func (r *Reader) Len() int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail()
		return 0
	}
	return n
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Close finishes decoding: it reports the sticky error, or ErrCorrupt if
// bytes remain past the end of the snapshot (trailing garbage).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

// Digest returns a compact FNV-1a fingerprint of a snapshot, for cheap
// equality checks and mismatch reporting.
func Digest(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
