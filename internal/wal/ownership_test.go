package wal

// The log frames and pads each segment inside its append buffer and hands
// that buffer to the device; a second buffer takes the appends that arrive
// while the first is on its way down. These tests append during a flush,
// scribble on record buffers, cut power between flushes and read the media.

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// readBack returns the records ReadRecords finds on d, on an environment of
// its own: what a reboot after a power cut at this instant would see.
func readBack(t *testing.T, d *disk.Disk) [][]byte {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	media := disk.New(env, d.Params())
	media.MediaWrite(0, d.MediaRead(0, 64))
	var got [][]byte
	var err error
	env.Go("read", func(p *sim.Proc) {
		got, err = ReadRecords(p, stddisk.New(env, media, blockdev.DevID{Major: 3}, sched.LOOK), 10000)
	})
	env.Run()
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	return got
}

func TestAppendsDuringFlushLandInNextSegment(t *testing.T) {
	env, l, d := newRig(t, func(c *Config) { c.MetadataWrites = true })
	defer env.Close()
	rec := func(i int) []byte { return bytes.Repeat([]byte{byte(0x10 + i)}, 150+90*i) }

	var sawFlushing bool
	env.Go("committer", func(p *sim.Proc) {
		var lsn int64
		for i := 0; i < 3; i++ {
			buf := rec(i)
			lsn, _ = l.Append(p, buf)
			clear(buf) // the record is the log's now
		}
		if err := l.Commit(p, lsn); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	env.Go("latecomer", func(p *sim.Proc) {
		p.Sleep(200 * time.Microsecond) // inside the first flush's command overhead
		sawFlushing = l.flushing
		for i := 3; i < 5; i++ {
			buf := rec(i)
			if _, err := l.Append(p, buf); err != nil {
				t.Errorf("append during flush: %v", err)
			}
			clear(buf)
		}
	})
	env.Run()
	if !sawFlushing {
		t.Fatal("the latecomer did not arrive during the flush; the test exercises nothing")
	}
	if l.Stats().Flushes != 1 || l.BufferedBytes() != (150+90*3+4)+(150+90*4+4) {
		t.Fatalf("flushes %d, buffered %d after the first flush", l.Stats().Flushes, l.BufferedBytes())
	}

	// Power cut here: exactly the flushed records are on the media.
	firstSegment := d.MediaRead(1, 2)
	got := readBack(t, d)
	if len(got) != 3 {
		t.Fatalf("%d records after a cut between flushes, want the 3 flushed ones", len(got))
	}

	// No cut: the latecomer's records go down as the next segment, in order,
	// and leave the first segment's sectors alone.
	run(env, func(p *sim.Proc) {
		if err := l.Flush(p); err != nil {
			t.Errorf("second flush: %v", err)
		}
	})
	if !bytes.Equal(d.MediaRead(1, 2), firstSegment) {
		t.Error("the second flush rewrote the first segment's sectors")
	}
	got = readBack(t, d)
	if len(got) != 5 {
		t.Fatalf("%d records after the second flush, want 5", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], rec(i)) {
			t.Errorf("record %d differs from what was appended", i)
		}
	}
}

// TestReusedBuffersLeaveNoStaleBytes: a long segment, a short one and a
// shorter one again cycle through the two buffers. Each segment's padding
// up to its sector boundary, and the inode sector past the LSN, are zero on
// the media however much longer the buffer's previous tenant was.
func TestReusedBuffersLeaveNoStaleBytes(t *testing.T) {
	env, l, d := newRig(t, func(c *Config) { c.MetadataWrites = true })
	defer env.Close()
	sizes := []int{1900, 40, 700, 9}
	run(env, func(p *sim.Proc) {
		for i, n := range sizes {
			lsn, err := l.Append(p, bytes.Repeat([]byte{byte(0xA0 + i)}, n))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(p, lsn); err != nil {
				t.Fatal(err)
			}
		}
	})
	at := int64(1)
	for i, n := range sizes {
		framed := segHeader + 4 + n
		sectors := (framed + geom.SectorSize - 1) / geom.SectorSize
		seg := d.MediaRead(at, sectors)
		if binary.LittleEndian.Uint32(seg) != segMagic || int(binary.LittleEndian.Uint32(seg[4:])) != 4+n {
			t.Fatalf("segment %d: bad frame at sector %d", i, at)
		}
		if pad := seg[framed:]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Errorf("segment %d: padding carries bytes of the buffer's previous tenant", i)
		}
		at += int64(sectors)
	}
	meta := d.MediaRead(0, 1)
	if binary.LittleEndian.Uint64(meta) != uint64(l.DurableLSN()) || !bytes.Equal(meta[8:], make([]byte, geom.SectorSize-8)) {
		t.Error("inode sector is not the durable LSN followed by zeroes")
	}
}

// TestSteadyStateAppendCommitDoesNotAllocate: once both buffers have grown to
// the segment size, appending and forcing a record allocates nothing in the
// log (an instant device, so a rare media slab is all that is left, which
// AllocsPerRun's integral average rounds away).
func TestSteadyStateAppendCommitDoesNotAllocate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev := disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3})
	l, err := New(env, Config{Dev: dev, Sectors: dev.Sectors(), Mode: SyncEveryCommit, MetadataWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 120)
	var allocs float64
	run(env, func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			lsn, _ := l.Append(p, rec)
			if err := l.Commit(p, lsn); err != nil {
				panic(err)
			}
		})
	})
	if allocs != 0 {
		t.Errorf("Append+Commit allocates %v times a record in steady state, want 0", allocs)
	}
}
