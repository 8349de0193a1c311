package trail

// Fuzzing the on-disk log format: recovery feeds raw log-disk sectors —
// including torn records, stale garbage from earlier epochs, and data
// payload sectors — straight into these decoders, so they must never panic
// and must round-trip whatever they accept. Short smoke runs (CI uses the
// seed corpus via plain `go test`; run the engine locally with e.g.
// `go test -fuzz=FuzzDecodeRecordHeader -fuzztime=10s ./internal/trail`)
// explore the hostile-input space the unit tests can't enumerate.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// FuzzDecodeRecordHeader throws arbitrary sectors at the record-header
// decoder. Anything accepted must survive a re-encode/re-decode round trip
// unchanged — a decoder that "repairs" fields would corrupt recovery.
func FuzzDecodeRecordHeader(f *testing.F) {
	f.Add(make([]byte, geom.SectorSize))
	f.Add([]byte{})
	h := &RecordHeader{
		Epoch:     3,
		Seq:       41,
		HeaderLBA: 1200,
		PrevSect:  1100,
		LogHead:   900,
		Blocks: []BlockRef{
			{Dev: blockdev.DevID{Major: 8, Minor: 1}, DataLBA: 5000, FirstDataByte: 0xA5},
			{Dev: blockdev.DevID{Major: 8, Minor: 2}, DataLBA: 72, FirstDataByte: 0x00},
		},
	}
	if sec, err := h.Encode(); err == nil {
		f.Add(sec)
		// Near-valid mutants: flipped signature byte, oversized batch.
		mut := bytes.Clone(sec)
		mut[1] ^= 0xFF
		f.Add(mut)
		mut = bytes.Clone(sec)
		mut[rhOffBatch] = 0xFF
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, sector []byte) {
		dec, err := DecodeRecordHeader(sector)
		if err != nil {
			return
		}
		re, err := dec.Encode()
		if err != nil {
			t.Fatalf("accepted header does not re-encode: %v", err)
		}
		dec2, err := DecodeRecordHeader(re)
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if dec.Epoch != dec2.Epoch || dec.Seq != dec2.Seq ||
			dec.HeaderLBA != dec2.HeaderLBA || dec.PrevSect != dec2.PrevSect ||
			dec.LogHead != dec2.LogHead || dec.DataCRC != dec2.DataCRC ||
			len(dec.Blocks) != len(dec2.Blocks) {
			t.Fatalf("round trip changed header: %+v vs %+v", dec, dec2)
		}
		for i := range dec.Blocks {
			if dec.Blocks[i] != dec2.Blocks[i] {
				t.Fatalf("round trip changed block %d: %+v vs %+v",
					i, dec.Blocks[i], dec2.Blocks[i])
			}
		}
	})
}

// FuzzDecodeDiskHeader does the same for the format header that marks a
// disk as a Trail log disk.
func FuzzDecodeDiskHeader(f *testing.F) {
	f.Add(make([]byte, geom.SectorSize))
	f.Add([]byte{})
	if sec, err := EncodeDiskHeader(&DiskHeader{Epoch: 7, CleanShutdown: true}); err == nil {
		f.Add(sec)
		mut := bytes.Clone(sec)
		mut[geom.SectorSize-1] ^= 0x01 // break the CRC
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, sector []byte) {
		dec, err := DecodeDiskHeader(sector)
		if err != nil {
			return
		}
		re, err := EncodeDiskHeader(dec)
		if err != nil {
			t.Fatalf("accepted disk header does not re-encode: %v", err)
		}
		dec2, err := DecodeDiskHeader(re)
		if err != nil {
			t.Fatalf("re-encoded disk header rejected: %v", err)
		}
		if dec.Epoch != dec2.Epoch || dec.CleanShutdown != dec2.CleanShutdown ||
			dec.Geom.Cylinders != dec2.Geom.Cylinders ||
			dec.Geom.Heads != dec2.Geom.Heads ||
			dec.Geom.TrackSkew != dec2.Geom.TrackSkew ||
			dec.Geom.CylSkew != dec2.Geom.CylSkew ||
			len(dec.Geom.Zones) != len(dec2.Geom.Zones) {
			t.Fatalf("round trip changed disk header: %+v vs %+v", dec, dec2)
		}
		for i := range dec.Geom.Zones {
			if dec.Geom.Zones[i] != dec2.Geom.Zones[i] {
				t.Fatalf("round trip changed zone %d", i)
			}
		}
	})
}

// FuzzRecoverLog runs crash recovery over a crashed log disk one of whose
// tracks (header replicas included) holds arbitrary bytes: media damage,
// stale garbage, or records whose header fields were rewritten — the header
// carries no checksum of its own, so a record image with an edited prev_sect,
// seq or block list still passes its data CRC. Recovery must return a report
// or an error wrapping one of trail's or blockdev's sentinels, never panic,
// and read a bounded number of tracks, so a looping chain cannot hang it.
func FuzzRecoverLog(f *testing.F) {
	crashed := crashAfterWrites(f, 8)
	g := crashed.log.Geom()
	hdr, err := ReadHeader(crashed.log)
	if err != nil {
		f.Fatal(err)
	}
	usable := make([]int, NumUsableTracks(g))
	for i := range usable {
		usable[i] = UsableTrack(g, i)
	}
	trackImage := func(track int) (base int64, spt int) {
		cyl, head := g.TrackOf(track)
		return g.TrackStartLBA(cyl, head), g.SPTAt(cyl)
	}
	for _, track := range usable[:3] {
		base, spt := trackImage(track)
		f.Add(uint8(track), crashed.log.MediaRead(base, spt))
	}
	f.Add(uint8(usable[0]), []byte{})
	f.Add(uint8(HeaderTracks(g)[0]), []byte("not a header"))

	// Forged records on the first usable track, newer than any real one, so
	// the locate phase's binary search stays on that track and picks the
	// first as the youngest. Record i sits at sector 2i and carries one
	// block.
	first := usable[0]
	base, spt := trackImage(first)
	at := func(i int) int64 { return base + int64(2*i) }
	forge := func(recs ...RecordHeader) []byte {
		img := make([]byte, spt*geom.SectorSize)
		for i, h := range recs {
			h.Epoch, h.Seq, h.HeaderLBA, h.LogHead = hdr.Epoch, uint64(1000-i), at(i), -1
			if h.Blocks == nil {
				h.Blocks = []BlockRef{{Dev: blockdev.DevID{Major: 8}, DataLBA: 7}}
			}
			if err := sealRecord(&h, img[2*i*geom.SectorSize:(2*i+2)*geom.SectorSize]); err != nil {
				f.Fatal(err)
			}
		}
		return img
	}
	f.Add(uint8(first), forge(RecordHeader{PrevSect: at(0)}))                                // points at itself
	f.Add(uint8(first), forge(RecordHeader{PrevSect: at(1)}, RecordHeader{PrevSect: at(0)})) // two-record loop
	f.Add(uint8(first), forge(RecordHeader{PrevSect: g.TotalSectors() + 7}))                 // off the disk
	f.Add(uint8(first), forge(RecordHeader{PrevSect: -1, Blocks: []BlockRef{{Dev: blockdev.DevID{Major: 9, Minor: 9}}}}))
	f.Add(uint8(first), forge(RecordHeader{PrevSect: -1, Blocks: []BlockRef{{Dev: blockdev.DevID{Major: 8}, DataLBA: math.MaxInt64}}}))

	// The locate phase scans at most every usable track plus the binary
	// search's probes. The chain walk moves strictly back in sequence, so it
	// reads each genuine track at most once (sequence follows allocation
	// order) and enters the damaged track at most twice.
	maxReads := int64(2*len(usable) + 8)
	sentinels := []error{ErrNotTrailDisk, ErrNotRecord, ErrTornRecord,
		blockdev.ErrOutOfRange, blockdev.ErrMediaError}

	f.Fuzz(func(t *testing.T, track uint8, img []byte) {
		env := sim.NewEnv()
		defer env.Close()
		log := crashed.log.Clone()
		log.Reattach(env)
		base, spt := trackImage(int(track) % g.TotalTracks())
		damaged := make([]byte, spt*geom.SectorSize)
		copy(damaged, img)
		log.MediaWrite(base, damaged)
		id := blockdev.DevID{Major: 8}
		devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env, disk.New(env, testDataParams("data")), id, sched.FIFO)}

		reads := log.Stats().Reads
		var rep *RecoverReport
		var rerr error
		env.Go("recovery", func(p *sim.Proc) { rep, rerr = Recover(p, log, devs, RecoverOptions{}) })
		env.Run()
		if reads = log.Stats().Reads - reads; reads > maxReads {
			t.Fatalf("recovery read %d tracks, bound %d", reads, maxReads)
		}
		if rerr == nil {
			if rep == nil {
				t.Fatal("recovery returned neither a report nor an error")
			}
			return
		}
		for _, s := range sentinels {
			if errors.Is(rerr, s) {
				return
			}
		}
		t.Fatalf("recovery error wraps no sentinel: %v", rerr)
	})
}
