package snapshot

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// dur stands for the int64-shaped types I64 carries (time.Duration, sim.Time).
type dur int64

// sample is one value of every primitive the codec carries.
type sample struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i64   int64
	d     dur
	n     int
	f     float64
	yes   bool
	no    bool
	blob  []byte
	view  []byte
	empty []byte
	s     string
	list  []uint16
	set   map[int64]string
}

var golden = sample{
	u8: 0xA5, u16: 0xBEEF, u32: 0xDEADBEEF, u64: math.MaxUint64,
	i64: math.MinInt64, d: -7, n: -42, f: math.Copysign(0, -1),
	yes: true, no: false,
	blob: []byte{1, 2, 3, 0, 255}, view: []byte("viewed"), empty: nil,
	s: "disk.Disk/é", list: []uint16{3, 1, 2},
	set: map[int64]string{900: "c", 0: "a", 100: "b"},
}

// walk is sample's one format, the shape every Snapshotter in the repo has.
func (v *sample) walk(c *Codec) {
	c.U8(&v.u8)
	c.U16(&v.u16)
	c.U32(&v.u32)
	c.U64(&v.u64)
	I64(c, &v.i64)
	I64(c, &v.d)
	c.Int(&v.n)
	c.F64(&v.f)
	c.Bool(&v.yes)
	c.Bool(&v.no)
	c.Bytes(&v.blob)
	c.View(&v.view)
	c.Bytes(&v.empty)
	c.String(&v.s)
	Slice(c, &v.list, func(c *Codec, x *uint16) { c.U16(x) })
	SortedMap(c, &v.set, func(c *Codec, _ int64, s *string) { c.String(s) })
}

func (v sample) encode(kind string, version uint16) []byte { return Encode(kind, version, v.walk) }

func decode(data []byte, kind string, version uint16) (sample, error) {
	var v sample
	err := Decode(data, kind, version, v.walk)
	return v, err
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	data := golden.encode("test.Kind", 7)
	got, err := decode(data, "test.Kind", 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.f) != math.Float64bits(golden.f) {
		t.Errorf("F64 lost bits: %x, want %x (negative zero)", math.Float64bits(got.f), math.Float64bits(golden.f))
	}
	if len(got.empty) != 0 {
		t.Errorf("empty slice decoded as %v", got.empty)
	}
	got.f, got.empty = golden.f, nil
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("round trip: got %+v, want %+v", got, golden)
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
		walked := false
		err := Decode(tc.data, tc.kind, tc.version, func(*Codec) { walked = true })
		if !errors.Is(err, tc.want) || walked {
			t.Errorf("%s: walked %v, err %v, want %v", tc.name, walked, err, tc.want)
		}
		for _, other := range []error{ErrCorrupt, ErrMismatch, ErrNotQuiescent} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%s: error %v also matches %v", tc.name, err, other)
			}
		}
	}
}

// Every proper prefix of a valid snapshot is a truncation: it must come back
// as ErrCorrupt, never as a value and never as a panic.
func TestEveryPrefixIsCorrupt(t *testing.T) {
	data := golden.encode("test.Kind", 7)
	for n := 0; n < len(data); n++ {
		if _, err := decode(data[:n], "test.Kind", 7); !errors.Is(err, ErrCorrupt) {
			t.Errorf("prefix of %d/%d bytes: err %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

func TestTrailingBytesAreCorrupt(t *testing.T) {
	data := append(golden.encode("test.Kind", 7), 0)
	if _, err := decode(data, "test.Kind", 7); !errors.Is(err, ErrCorrupt) {
		t.Errorf("one trailing byte: err %v, want ErrCorrupt", err)
	}
	if err := Decode(Encode("k", 1, func(*Codec) {}), "k", 1, func(*Codec) {}); err != nil {
		t.Errorf("empty body: err %v, want nil", err)
	}
}

// After the first failure every primitive leaves its target alone, a later
// Fail does not replace the error, and Decode reports the first one.
func TestErrorIsSticky(t *testing.T) {
	data := Encode("k", 1, func(c *Codec) {
		two, n := uint8(2), uint64(99)
		c.U8(&two) // not a boolean
		c.U64(&n)
	})
	var first error
	v := sample{u64: 7, s: "kept", blob: []byte("kept"), list: []uint16{1}}
	err := Decode(data, "k", 1, func(c *Codec) {
		var b bool
		c.Bool(&b)
		first = c.Err()
		c.U64(&v.u64)
		c.String(&v.s)
		c.Bytes(&v.blob)
		c.F64(&v.f)
		if n := c.Len(5); n != 0 {
			t.Errorf("Len after a failure = %d", n)
		}
		c.Fail(ErrMismatch)
	})
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("Bool(2): Err %v, want ErrCorrupt", first)
	}
	if v.u64 != 7 || v.s != "kept" || string(v.blob) != "kept" || v.f != 0 {
		t.Errorf("primitives after a failure changed their targets: %+v", v)
	}
	if err != first {
		t.Errorf("Decode returned %v, first error %v", err, first)
	}
}

// A walk that fails while encoding is a bug in its component.
func TestEncodeFailurePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode returned bytes from a failed walk")
		}
	}()
	Encode("k", 1, func(c *Codec) { c.Fail(ErrCorrupt) })
}

func TestViewAliasesBytesCopies(t *testing.T) {
	data := Encode("k", 1, func(c *Codec) {
		cp, vw := []byte("copy"), []byte("view")
		c.Bytes(&cp)
		c.Bytes(&vw)
	})
	var copied, viewed []byte
	if err := Decode(data, "k", 1, func(c *Codec) {
		c.Bytes(&copied)
		c.View(&viewed)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X'
	}
	if string(copied) != "copy" {
		t.Errorf("Bytes aliases the input: %q", copied)
	}
	if string(viewed) != "XXXX" {
		t.Errorf("View copied instead of aliasing: %q", viewed)
	}
}

// SortedMap writes keys in increasing order whatever the map's iteration
// order, and reads back only such streams: a key that repeats, goes
// backwards or is negative is corrupt.
func TestSortedMapOrder(t *testing.T) {
	stream := func(keys ...int64) []byte {
		return Encode("k", 1, func(c *Codec) {
			c.Len(len(keys))
			for _, k := range keys {
				I64(c, &k)
			}
		})
	}
	walk := func(m *map[int64]bool) func(*Codec) {
		return func(c *Codec) { SortedMap(c, m, func(*Codec, int64, *bool) {}) }
	}
	set := map[int64]bool{900: true, 100: true, 1 << 40: true}
	if got := Encode("k", 1, walk(&set)); !bytes.Equal(got, stream(100, 900, 1<<40)) {
		t.Error("SortedMap did not encode in key order")
	}
	for name, data := range map[string][]byte{
		"swapped":  stream(900, 100, 1<<40),
		"repeated": stream(100, 100, 900),
		"negative": stream(-1, 100),
	} {
		var m map[int64]bool
		if err := Decode(data, "k", 1, walk(&m)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s keys: err %v, want ErrCorrupt", name, err)
		}
	}
	var m map[int64]bool
	if err := Decode(stream(0, 100, 1<<40), "k", 1, walk(&m)); err != nil || len(m) != 3 {
		t.Errorf("increasing keys: %d decoded, err %v", len(m), err)
	}
}

// A length prefix larger than what is left of the input is refused before
// anything of that size is allocated.
func TestHostileLengthIsRefusedWithoutAllocating(t *testing.T) {
	const claimed = 1 << 28
	data := Encode("k", 1, func(c *Codec) {
		n, pad := uint32(claimed), uint64(0)
		c.U32(&n)
		c.U64(&pad) // eight bytes follow, not 256 MiB
	})
	reads := map[string]func(*Codec) bool{
		"Bytes":  func(c *Codec) bool { var b []byte; c.Bytes(&b); return b == nil },
		"View":   func(c *Codec) bool { var b []byte; c.View(&b); return b == nil },
		"String": func(c *Codec) bool { var s string; c.String(&s); return s == "" },
		"Len":    func(c *Codec) bool { return c.Len(0) == 0 },
		"Slice": func(c *Codec) bool {
			var s []uint64
			Slice(c, &s, func(c *Codec, x *uint64) { c.U64(x) })
			return len(s) == 0
		},
		"SortedMap": func(c *Codec) bool {
			var m map[int64]uint64
			SortedMap(c, &m, func(c *Codec, _ int64, x *uint64) { c.U64(x) })
			return len(m) == 0
		},
	}
	for name, read := range reads {
		var before, after runtime.MemStats
		var empty bool
		runtime.ReadMemStats(&before)
		err := Decode(data, "k", 1, func(c *Codec) { empty = read(c) })
		runtime.ReadMemStats(&after)
		if !empty || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: accepted a %d-byte claim over 8 bytes of input (err %v)", name, claimed, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > claimed/2 {
			t.Errorf("%s: allocated %d bytes refusing the claim", name, grew)
		}
	}
	// A claim that fits is the boundary: Len accepts exactly the remaining
	// byte count.
	fits := Encode("k", 1, func(c *Codec) {
		n, pad := 2, uint16(0)
		c.Len(n)
		c.U16(&pad)
	})
	if err := Decode(fits, "k", 1, func(c *Codec) {
		var pad uint16
		if n := c.Len(0); n != 2 {
			t.Errorf("Len at the boundary = %d", n)
		}
		c.U16(&pad)
	}); err != nil {
		t.Errorf("Len at the boundary: err %v", err)
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
