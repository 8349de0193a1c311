package trail

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
)

func testGeometry() geom.Geometry {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew = 4
	g.CylSkew = 8
	return g
}

func TestDiskHeaderRoundTrip(t *testing.T) {
	h := &DiskHeader{Epoch: 42, CleanShutdown: true, Geom: testGeometry()}
	sector, err := EncodeDiskHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(sector) != geom.SectorSize {
		t.Fatalf("encoded header %d bytes", len(sector))
	}
	got, err := DecodeDiskHeader(sector)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 42 || !got.CleanShutdown {
		t.Errorf("decoded %+v", got)
	}
	if got.Geom.Cylinders != 12 || got.Geom.Heads != 2 || got.Geom.TrackSkew != 4 {
		t.Errorf("geometry mangled: %+v", got.Geom)
	}
	if len(got.Geom.Zones) != 1 || got.Geom.Zones[0].SPT != 60 {
		t.Errorf("zones mangled: %+v", got.Geom.Zones)
	}
}

func TestDiskHeaderRejectsCorruption(t *testing.T) {
	h := &DiskHeader{Epoch: 7, Geom: testGeometry()}
	sector, err := EncodeDiskHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte)
	}{
		{"zeroed", func(s []byte) { s[0] = 0 }},
		{"bad signature", func(s []byte) { s[3] ^= 0xFF }},
		{"flipped epoch bit", func(s []byte) { s[9] ^= 1 }},
		{"flipped geometry bit", func(s []byte) { s[20] ^= 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := make([]byte, len(sector))
			copy(c, sector)
			tc.mut(c)
			if _, err := DecodeDiskHeader(c); !errors.Is(err, ErrNotTrailDisk) {
				t.Errorf("corrupt header accepted: %v", err)
			}
		})
	}
}

func TestDiskHeaderTooManyZones(t *testing.T) {
	g := testGeometry()
	g.Zones = nil
	for i := 0; i < maxZones+1; i++ {
		g.Zones = append(g.Zones, geom.Zone{StartCyl: i, EndCyl: i, SPT: 10})
	}
	g.Cylinders = maxZones + 1
	if _, err := EncodeDiskHeader(&DiskHeader{Geom: g}); err == nil {
		t.Error("oversized zone table accepted")
	}
}

func sampleRecord(nBlocks int) (*RecordHeader, []byte) {
	h := &RecordHeader{
		Epoch:     3,
		Seq:       991,
		HeaderLBA: 1234,
		PrevSect:  1100,
		LogHead:   900,
	}
	data := make([]byte, nBlocks*geom.SectorSize)
	for i := 0; i < nBlocks; i++ {
		h.Blocks = append(h.Blocks, BlockRef{
			Dev:     blockdev.DevID{Major: 8, Minor: uint8(i % 3)},
			DataLBA: int64(5000 + 7*i),
		})
		for j := 0; j < geom.SectorSize; j++ {
			data[i*geom.SectorSize+j] = byte(i + j)
		}
	}
	return h, data
}

func TestRecordRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 17, MaxBatch} {
		h, data := sampleRecord(n)
		orig := make([]byte, len(data))
		copy(orig, data)
		img, err := BuildRecord(h, data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(img) != (n+1)*geom.SectorSize {
			t.Fatalf("n=%d: image %d bytes", n, len(img))
		}
		// Every data sector on disk starts with the marker byte.
		for i := 1; i <= n; i++ {
			if img[i*geom.SectorSize] != dataFirstByte {
				t.Errorf("n=%d: data sector %d first byte %#x", n, i, img[i*geom.SectorSize])
			}
		}
		dec, err := DecodeRecordHeader(img[:geom.SectorSize])
		if err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if dec.Seq != h.Seq || dec.Epoch != h.Epoch || dec.PrevSect != h.PrevSect ||
			dec.LogHead != h.LogHead || dec.HeaderLBA != h.HeaderLBA || len(dec.Blocks) != n {
			t.Fatalf("n=%d: decoded header %+v", n, dec)
		}
		restored, err := ExtractData(dec, img)
		if err != nil {
			t.Fatalf("n=%d extract: %v", n, err)
		}
		if !bytes.Equal(restored, orig) {
			t.Fatalf("n=%d: restored data differs", n)
		}
		for i, b := range dec.Blocks {
			if b.DataLBA != h.Blocks[i].DataLBA || b.Dev != h.Blocks[i].Dev {
				t.Fatalf("n=%d: block %d = %+v", n, i, b)
			}
		}
	}
}

func TestRecordFirstByteSubstitution(t *testing.T) {
	// Data whose first bytes are the record marker must round-trip: this is
	// the whole point of the displaced-byte scheme.
	h, data := sampleRecord(2)
	data[0] = recordFirstByte
	data[geom.SectorSize] = recordFirstByte
	orig := make([]byte, len(data))
	copy(orig, data)
	img, err := BuildRecord(h, data)
	if err != nil {
		t.Fatal(err)
	}
	// On disk, no data sector may look like a record header.
	for i := 1; i <= 2; i++ {
		if _, err := DecodeRecordHeader(img[i*geom.SectorSize : (i+1)*geom.SectorSize]); err == nil {
			t.Error("data sector parses as record header")
		}
	}
	dec, err := DecodeRecordHeader(img[:geom.SectorSize])
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ExtractData(dec, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, orig) {
		t.Error("displaced first bytes not restored")
	}
}

func TestRecordRejectsBadBatch(t *testing.T) {
	h, _ := sampleRecord(1)
	h.Blocks = nil
	if _, err := h.Encode(); err == nil {
		t.Error("empty batch accepted")
	}
	h, data := sampleRecord(MaxBatch)
	h.Blocks = append(h.Blocks, BlockRef{})
	if _, err := BuildRecord(h, append(data, make([]byte, geom.SectorSize)...)); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestExtractDataDetectsTorn(t *testing.T) {
	h, data := sampleRecord(4)
	img, err := BuildRecord(h, data)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := DecodeRecordHeader(img[:geom.SectorSize])

	// Simulate a crash mid-transfer: last data sector never reached the
	// platter (stale zeroes).
	torn := make([]byte, len(img))
	copy(torn, img)
	copy(torn[4*geom.SectorSize:], make([]byte, geom.SectorSize))
	if _, err := ExtractData(dec, torn); !errors.Is(err, ErrTornRecord) {
		t.Errorf("torn record accepted: %v", err)
	}

	// A single flipped bit must also be caught.
	flipped := make([]byte, len(img))
	copy(flipped, img)
	flipped[2*geom.SectorSize+100] ^= 1
	if _, err := ExtractData(dec, flipped); !errors.Is(err, ErrTornRecord) {
		t.Errorf("corrupt record accepted: %v", err)
	}
}

func TestDecodeRecordHeaderRejectsGarbage(t *testing.T) {
	f := func(seed []byte) bool {
		sector := make([]byte, geom.SectorSize)
		copy(sector, seed)
		sector[0] = dataFirstByte // anything that is not the record marker
		_, err := DecodeRecordHeader(sector)
		return errors.Is(err, ErrNotRecord)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHeaderTracksReservedAndUsable(t *testing.T) {
	g := testGeometry()
	tracks := HeaderTracks(&g)
	if tracks[0] != 0 || tracks[1] != 12 || tracks[2] != 23 {
		t.Errorf("header tracks = %v", tracks)
	}
	if n := NumUsableTracks(&g); n != g.TotalTracks()-3 {
		t.Fatalf("usable = %d tracks, want %d", n, g.TotalTracks()-3)
	}
	for i := range NumUsableTracks(&g) {
		u := UsableTrack(&g, i)
		for _, r := range tracks {
			if u == r {
				t.Fatalf("reserved track %d in usable set", r)
			}
		}
	}
	// LBAs of header copies match their tracks.
	lbas := HeaderLBAs(&g)
	for i, tr := range tracks {
		cyl, head := g.TrackOf(tr)
		if lbas[i] != g.TrackStartLBA(cyl, head) {
			t.Errorf("header LBA %d = %d", i, lbas[i])
		}
	}
}

// enumerateUsableTracks is the allocator's order as a table: every track
// that is not a header track, ascending. It is the oracle for UsableTrack
// and NumUsableTracks, which compute the same order by arithmetic.
func enumerateUsableTracks(g *geom.Geometry) []int {
	reserved := HeaderTracks(g)
	var out []int
	for t := 0; t < g.TotalTracks(); t++ {
		if t != reserved[0] && t != reserved[1] && t != reserved[2] {
			out = append(out, t)
		}
	}
	return out
}

// The track index gives exactly the enumeration's sequence and length on
// both paper drives and on every geometry of 1-8 tracks, where the header
// tracks coincide and fewer than three tracks are reserved.
func TestUsableTrackMatchesEnumeration(t *testing.T) {
	geoms := []geom.Geometry{disk.ST41601N().Geom, disk.WDCaviar().Geom}
	for tracks := 1; tracks <= 8; tracks++ {
		for heads := 1; heads <= tracks; heads++ {
			if tracks%heads == 0 {
				geoms = append(geoms, geom.Uniform(tracks/heads, heads, 60))
			}
		}
	}
	for _, g := range geoms {
		want := enumerateUsableTracks(&g)
		if n := NumUsableTracks(&g); n != len(want) {
			t.Errorf("%dx%d: NumUsableTracks = %d, want %d", g.Cylinders, g.Heads, n, len(want))
			continue
		}
		for i, tr := range want {
			if got := UsableTrack(&g, i); got != tr {
				t.Errorf("%dx%d: UsableTrack(%d) = %d, want %d", g.Cylinders, g.Heads, i, got, tr)
				break
			}
		}
	}
}
