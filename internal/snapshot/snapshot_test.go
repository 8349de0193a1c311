package snapshot

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
)

// sample is one value of every primitive the codec carries.
type sample struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i64   int64
	n     int
	f     float64
	yes   bool
	no    bool
	blob  []byte
	view  []byte
	empty []byte
	s     string
	count int // written as a Len-checked collection of single bytes
}

var golden = sample{
	u8: 0xA5, u16: 0xBEEF, u32: 0xDEADBEEF, u64: math.MaxUint64,
	i64: math.MinInt64, n: -42, f: math.Copysign(0, -1),
	yes: true, no: false,
	blob: []byte{1, 2, 3, 0, 255}, view: []byte("viewed"), empty: nil,
	s: "disk.Disk/é", count: 3,
}

func (v sample) encode(kind string, version uint16) []byte {
	w := NewWriter(kind, version)
	w.U8(v.u8)
	w.U16(v.u16)
	w.U32(v.u32)
	w.U64(v.u64)
	w.I64(v.i64)
	w.Int(v.n)
	w.F64(v.f)
	w.Bool(v.yes)
	w.Bool(v.no)
	w.Bytes32(v.blob)
	w.Bytes32(v.view)
	w.Bytes32(v.empty)
	w.String(v.s)
	w.U32(uint32(v.count))
	for i := 0; i < v.count; i++ {
		w.U8(uint8(i))
	}
	return w.Bytes()
}

// decode reads what encode wrote, straight-line, and checks once at the end
// — the shape every Restore in the repo has.
func decode(data []byte, kind string, version uint16) (sample, error) {
	r, err := NewReader(data, kind, version)
	if err != nil {
		return sample{}, err
	}
	var v sample
	v.u8 = r.U8()
	v.u16 = r.U16()
	v.u32 = r.U32()
	v.u64 = r.U64()
	v.i64 = r.I64()
	v.n = r.Int()
	v.f = r.F64()
	v.yes = r.Bool()
	v.no = r.Bool()
	v.blob = r.Bytes32()
	v.view = r.View32()
	v.empty = r.Bytes32()
	v.s = r.StringVal()
	v.count = r.Len()
	for i := 0; i < v.count; i++ {
		r.U8()
	}
	sticky := r.Err()
	if err := r.Close(); sticky != nil && err != sticky {
		return sample{}, errors.New("Close does not report the sticky Err")
	} else if err != nil {
		return sample{}, err
	}
	return v, nil
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	data := golden.encode("test.Kind", 7)
	got, err := decode(data, "test.Kind", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.u8 != golden.u8 || got.u16 != golden.u16 || got.u32 != golden.u32 || got.u64 != golden.u64 ||
		got.i64 != golden.i64 || got.n != golden.n || got.yes != golden.yes || got.no != golden.no ||
		got.s != golden.s || got.count != golden.count {
		t.Errorf("scalars: got %+v, want %+v", got, golden)
	}
	if math.Float64bits(got.f) != math.Float64bits(golden.f) {
		t.Errorf("F64 lost bits: %x, want %x (negative zero)", math.Float64bits(got.f), math.Float64bits(golden.f))
	}
	if !bytes.Equal(got.blob, golden.blob) || !bytes.Equal(got.view, golden.view) || len(got.empty) != 0 {
		t.Errorf("byte fields: %v %q %v", got.blob, got.view, got.empty)
	}
	if !bytes.Equal(data, golden.encode("test.Kind", 7)) {
		t.Error("encoding the same value twice gave different bytes")
	}
}

func TestHeaderClassification(t *testing.T) {
	data := golden.encode("test.Kind", 7)
	badMagic := append([]byte{}, data...)
	badMagic[0] ^= 0xFF
	for _, tc := range []struct {
		name    string
		data    []byte
		kind    string
		version uint16
		want    error
	}{
		{"wrong kind", data, "other.Kind", 7, ErrMismatch},
		{"wrong version", data, "test.Kind", 8, ErrMismatch},
		{"bad magic", badMagic, "test.Kind", 7, ErrCorrupt},
		{"empty", nil, "test.Kind", 7, ErrCorrupt},
		{"magic only", data[:4], "test.Kind", 7, ErrCorrupt},
		{"kind cut short", data[:10], "test.Kind", 7, ErrCorrupt},
	} {
		r, err := NewReader(tc.data, tc.kind, tc.version)
		if !errors.Is(err, tc.want) || r != nil {
			t.Errorf("%s: reader %v, err %v, want %v", tc.name, r, err, tc.want)
		}
		for _, other := range []error{ErrCorrupt, ErrMismatch, ErrNotQuiescent} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%s: error %v also matches %v", tc.name, err, other)
			}
		}
	}
}

// Every proper prefix of a valid snapshot is a truncation: it must come back
// as ErrCorrupt from NewReader or from Err/Close, never as a value and never
// as a panic.
func TestEveryPrefixIsCorrupt(t *testing.T) {
	data := golden.encode("test.Kind", 7)
	for n := 0; n < len(data); n++ {
		if _, err := decode(data[:n], "test.Kind", 7); !errors.Is(err, ErrCorrupt) {
			t.Errorf("prefix of %d/%d bytes: err %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

func TestCloseFlagsTrailingBytes(t *testing.T) {
	data := append(golden.encode("test.Kind", 7), 0)
	if _, err := decode(data, "test.Kind", 7); !errors.Is(err, ErrCorrupt) {
		t.Errorf("one trailing byte: err %v, want ErrCorrupt", err)
	}
	r, err := NewReader(NewWriter("k", 1).Bytes(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil || r.Close() != nil {
		t.Errorf("empty body: Err %v, Close %v, want nil", r.Err(), r.Close())
	}
}

// After the first failure every read returns a zero value and the error
// stays the first one.
func TestErrorIsSticky(t *testing.T) {
	w := NewWriter("k", 1)
	w.U8(2) // not a boolean
	w.U64(99)
	r, err := NewReader(w.Bytes(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bool() {
		t.Error("Bool(2) = true")
	}
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("Bool(2): Err %v, want ErrCorrupt", first)
	}
	if r.U64() != 0 || r.StringVal() != "" || r.Bytes32() != nil || r.View32() != nil || r.Len() != 0 || r.F64() != 0 {
		t.Error("reads after a failure returned data")
	}
	if r.Err() != first || r.Close() != first {
		t.Errorf("error changed: Err %v, Close %v, first %v", r.Err(), r.Close(), first)
	}
}

func TestView32AliasesBytes32Copies(t *testing.T) {
	w := NewWriter("k", 1)
	w.Bytes32([]byte("copy"))
	w.Bytes32([]byte("view"))
	data := w.Bytes()
	r, err := NewReader(data, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	copied, viewed := r.Bytes32(), r.View32()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if string(copied) != "copy" {
		t.Errorf("Bytes32 aliases the input: %q", copied)
	}
	if string(viewed) != "XXXX" {
		t.Errorf("View32 copied instead of aliasing: %q", viewed)
	}
}

// A length prefix larger than what is left of the input is refused before
// anything of that size is allocated.
func TestHostileLengthIsRefusedWithoutAllocating(t *testing.T) {
	const claimed = 1 << 28
	reads := map[string]func(*Reader) bool{
		"Bytes32":   func(r *Reader) bool { return r.Bytes32() == nil },
		"View32":    func(r *Reader) bool { return r.View32() == nil },
		"StringVal": func(r *Reader) bool { return r.StringVal() == "" },
		"Len":       func(r *Reader) bool { return r.Len() == 0 },
	}
	for name, read := range reads {
		w := NewWriter("k", 1)
		w.U32(claimed)
		w.U64(0) // eight bytes follow, not 256 MiB
		r, err := NewReader(w.Bytes(), "k", 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		empty := read(r)
		runtime.ReadMemStats(&after)
		if !empty || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: accepted a %d-byte claim over 8 bytes of input (Err %v)", name, claimed, r.Err())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/2 {
			t.Errorf("%s: allocated %d bytes refusing the claim", name, grew)
		}
	}
	// A claim that fits is the boundary: Len accepts exactly the remaining
	// byte count.
	w := NewWriter("k", 1)
	w.U32(2)
	w.U16(0)
	r, _ := NewReader(w.Bytes(), "k", 1)
	if n := r.Len(); n != 2 || r.Err() != nil {
		t.Errorf("Len at the boundary = %d, Err %v", n, r.Err())
	}
}

func TestDigest(t *testing.T) {
	// FNV-1a 64 reference values.
	if got := Digest(nil); got != 0xcbf29ce484222325 {
		t.Errorf("Digest(nil) = %x", got)
	}
	if got := Digest([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Errorf(`Digest("a") = %x`, got)
	}
}
