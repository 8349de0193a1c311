package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// fuzzSegment frames records the way Log.flush lays a segment on the media:
// magic, body length, then each record behind its 4-byte length.
func fuzzSegment(recs ...[]byte) []byte {
	seg := binary.LittleEndian.AppendUint32(nil, segMagic)
	seg = binary.LittleEndian.AppendUint32(seg, 0)
	for _, r := range recs {
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(r)))
		seg = append(seg, r...)
	}
	binary.LittleEndian.PutUint32(seg[4:], uint32(len(seg)-segHeader))
	return seg
}

// FuzzReadRecords scans a log region filled with arbitrary bytes. The
// outcome is records or a wrapped error, never a panic, and the scan ends
// (each step moves past at least one sector). The records must be copies:
// overwriting the device afterwards leaves them unchanged.
func FuzzReadRecords(f *testing.F) {
	sector := func(b []byte) []byte { return append(b, make([]byte, geom.SectorSize-len(b)%geom.SectorSize)...) }
	meta := make([]byte, geom.SectorSize)
	f.Add(meta)
	f.Add(append(append(meta, sector(fuzzSegment([]byte("one"), []byte("two")))...), fuzzSegment(bytes.Repeat([]byte{7}, 600))...))
	torn := fuzzSegment([]byte("torn"))
	binary.LittleEndian.PutUint32(torn[4:], 1<<30)
	f.Add(append(meta, torn...))
	bad := fuzzSegment([]byte("x"))
	binary.LittleEndian.PutUint32(bad[segHeader:], 0xFFFFFFF0) // record longer than its segment
	f.Add(append(meta, bad...))

	// One world serves every input: a scan reads only the sectors the input
	// has just overwritten.
	env := sim.NewEnv()
	f.Cleanup(env.Close)
	d := disk.New(env, disk.WDCaviar())
	dev := disk.NewInstantDev(d, blockdev.DevID{Major: 3})
	const startLBA, maxSectors = 5, 64
	f.Fuzz(func(t *testing.T, region []byte) {
		if len(region) > maxSectors*geom.SectorSize {
			region = region[:maxSectors*geom.SectorSize]
		}
		sectors := int64(len(region)/geom.SectorSize + 1)
		d.MediaWrite(startLBA, sector(append([]byte(nil), region...)))

		var recs [][]byte
		var err error
		env.Go("scan", func(p *sim.Proc) { recs, err = ReadRecords(p, dev, startLBA, sectors) })
		env.Run()
		if err != nil {
			if errors.Unwrap(err) == nil {
				t.Fatalf("ReadRecords error %v wraps no cause", err)
			}
			return
		}
		kept := make([][]byte, len(recs))
		for i, r := range recs {
			if len(r) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			kept[i] = append([]byte(nil), r...)
		}
		d.MediaWrite(startLBA, bytes.Repeat([]byte{0xA5}, int(sectors)*geom.SectorSize))
		for i := range recs {
			if !bytes.Equal(recs[i], kept[i]) {
				t.Fatalf("record %d changed when the device was overwritten: it aliases the media", i)
			}
		}
	})
}
