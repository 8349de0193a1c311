package crashexplore_test

import (
	"testing"

	"tracklog/internal/crashexplore"
	"tracklog/internal/geom"
)

// FuzzParseVersion throws arbitrary media at the audit's payload parser. The
// contract: never panic, report consistent only for a buffer of exactly the
// slot's sectors, and parse every payload Payload builds back to its version.
func FuzzParseVersion(f *testing.F) {
	for _, seed := range []struct {
		buf              []byte
		slot, sectors, v int
	}{
		{crashexplore.Payload(3, 7, 2), 3, 2, 7},
		{crashexplore.Payload(0, 1, 1), 0, 1, 1},
		{make([]byte, 2*geom.SectorSize), 1, 2, 1},
		{crashexplore.Payload(3, 7, 2)[:geom.SectorSize+64], 3, 2, 7}, // short, non-zero
		{[]byte{1}, 0, 0, 1},                                          // no sectors, non-zero
		{nil, 0, 1, 0},
		{crashexplore.Payload(2, 5, 1), 2, -1, 5},
	} {
		f.Add(seed.buf, seed.slot, seed.sectors, seed.v)
	}
	f.Fuzz(func(t *testing.T, buf []byte, slot, sectors, v int) {
		if _, ok := crashexplore.ParseVersion(buf, slot, sectors); ok && (sectors < 1 || len(buf) != sectors*geom.SectorSize) {
			t.Fatalf("ParseVersion(%d bytes, slot %d, %d sectors) is consistent", len(buf), slot, sectors)
		}
		// Round trip, over sizes Payload can build cheaply.
		n := int(uint(sectors)%8) + 1
		if got, ok := crashexplore.ParseVersion(crashexplore.Payload(slot, v, n), slot, n); !ok || got != v {
			t.Fatalf("ParseVersion(Payload(%d, %d, %d)) = (%d, %v), want (%d, true)", slot, v, n, got, ok, v)
		}
	})
}
