package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// mediaModel is the reference the slab-backed store is held to: one value
// per written LBA, nothing shared.
type mediaModel map[int64][geom.SectorSize]byte

// write stores data at lba and counts the overwrites that grow and that
// shrink a sector's held bytes, so a test can show it reached both.
func (m mediaModel) write(lba int64, data []byte) (grew, shrank int) {
	for i := 0; i < len(data)/geom.SectorSize; i++ {
		var sec [geom.SectorSize]byte
		copy(sec[:], data[i*geom.SectorSize:])
		if old, ok := m[lba+int64(i)]; ok {
			switch was, now := held(old[:]), held(sec[:]); {
			case now > was:
				grew++
			case now < was:
				shrank++
			}
		}
		m[lba+int64(i)] = sec
	}
	return grew, shrank
}

func (m mediaModel) read(lba int64, count int) []byte {
	out := make([]byte, 0, count*geom.SectorSize)
	for i := 0; i < count; i++ {
		sec := m[lba+int64(i)] // zero when never written
		out = append(out, sec[:]...)
	}
	return out
}

func randomSectors(rng *sim.Rand, count int) []byte {
	data := make([]byte, count*geom.SectorSize)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

// zeroTails are the zero-tail lengths tailedSectors draws from: a dense
// sector, the edges of a 16-byte slot, a short stamp and an all-zero sector.
var zeroTails = [...]int{0, 1, 15, 16, 17, 100, 511, 512}

// tailedSectors is randomSectors with each sector's last bytes cleared, to a
// length drawn per sector from zeroTails, so that overwrites of one LBA both
// grow and shrink what the sector holds.
func tailedSectors(rng *sim.Rand, count int) []byte {
	data := randomSectors(rng, count)
	for i := 0; i < count; i++ {
		end := (i + 1) * geom.SectorSize
		clear(data[end-zeroTails[rng.Intn(len(zeroTails))] : end])
	}
	return data
}

// access runs one timed command on d in a process of its own.
func access(env *sim.Env, d *Disk, req *Request) Result {
	var res Result
	env.Go("access", func(p *sim.Proc) { res = d.Access(p, req) })
	env.Run()
	return res
}

// TestSectorStoreMatchesModel drives the drive's media through every way in
// (MediaWrite, timed Access writes, overwrites, MediaZero, Snapshot into
// Restore on a fresh drive) and holds every way out (MediaRead, timed reads,
// WrittenSectors) to a plain map of sector values. The LBA range is narrow so
// overwrites are common, and wide enough to carve slabs of every size; every
// sector has a zero tail drawn from zeroTails, so the store's short slots,
// all-zero sectors and full-slot moves are all reached.
func TestSectorStoreMatchesModel(t *testing.T) {
	const span = 1500 // LBAs in play
	rng := sim.NewRand(41)
	env := sim.NewEnv()
	defer func() { env.Close() }()
	d := New(env, smallParams())
	model := mediaModel{}
	grew, shrank := 0, 0
	write := func(lba int64, data []byte) {
		g, s := model.write(lba, data)
		grew, shrank = grew+g, shrank+s
	}

	check := func(step int) {
		t.Helper()
		if got := d.WrittenSectors(); got != len(model) {
			t.Fatalf("step %d: WrittenSectors = %d, model holds %d", step, got, len(model))
		}
		lba, count := int64(rng.Intn(span)), 1+rng.Intn(16)
		if got := d.MediaRead(lba, count); !bytes.Equal(got, model.read(lba, count)) {
			t.Fatalf("step %d: MediaRead(%d,%d) differs from the model", step, lba, count)
		}
	}
	for step := 0; step < 600; step++ {
		lba, count := int64(rng.Intn(span)), 1+rng.Intn(16)
		switch op := rng.Intn(100); {
		case op < 55:
			data := tailedSectors(rng, count)
			d.MediaWrite(lba, data)
			write(lba, data)
		case op < 85:
			data := tailedSectors(rng, count)
			if res := access(env, d, &Request{Write: true, LBA: lba, Count: count, Data: data}); res.Err != nil {
				t.Fatalf("step %d: write: %v", step, res.Err)
			}
			write(lba, data)
			clear(data) // the drive keeps its own copy
		case op < 93:
			req := &Request{LBA: lba, Count: count}
			if res := access(env, d, req); res.Err != nil {
				t.Fatalf("step %d: read: %v", step, res.Err)
			}
			if !bytes.Equal(req.Data, model.read(lba, count)) {
				t.Fatalf("step %d: timed read (%d,%d) differs from the model", step, lba, count)
			}
		case op < 99:
			// Carry on with a drive restored from this one's snapshot.
			env2 := sim.NewEnv()
			d2 := New(env2, smallParams())
			if err := d2.Restore(d.Snapshot()); err != nil {
				t.Fatalf("step %d: Restore: %v", step, err)
			}
			env.Close()
			env, d = env2, d2
		default:
			d.MediaZero()
			model = mediaModel{}
		}
		check(step)
	}
	for lba := range model {
		if got := d.MediaRead(lba, 1); !bytes.Equal(got, model.read(lba, 1)) {
			t.Fatalf("final: sector %d differs from the model", lba)
		}
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("overwrites grew %d and shrank %d sectors, want both", grew, shrank)
	}
}

// goldenDrive builds a fixed drive state whose snapshot digest is pinned
// below: random extents from sectors with overwrites through both write paths.
func goldenDrive(env *sim.Env, sectors func(*sim.Rand, int) []byte) *Disk {
	d := New(env, smallParams())
	rng := sim.NewRand(7)
	for i := 0; i < 200; i++ {
		lba, count := int64(rng.Intn(3000)), 1+rng.Intn(12)
		data := sectors(rng, count)
		if i%5 == 0 {
			access(env, d, &Request{Write: true, LBA: lba, Count: count, Data: data})
		} else {
			d.MediaWrite(lba, data)
		}
	}
	return d
}

// TestSnapshotGoldenDigest pins Snapshot's bytes (their FNV-64a) across the
// changes of media representation: the dense digest was recorded with one
// heap object per sector, the zero-tail one with one 512-byte slab slot per
// sector, before sectors were trimmed to their last non-zero byte.
func TestSnapshotGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sectors func(*sim.Rand, int) []byte
		want    uint64
	}{
		{"dense", randomSectors, 0x88f698f0aebbfc25},
		{"zero tails", tailedSectors, 0x19f2baa2550a0f38},
	} {
		env := sim.NewEnv()
		h := fnv.New64a()
		h.Write(goldenDrive(env, tc.sectors).Snapshot())
		env.Close()
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: snapshot digest = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestRestoredDrivesShareNothing: writing to a restored drive changes neither
// the source, nor a sibling restored from the same bytes, and none of them
// keeps a reference into the snapshot bytes it was restored from.
func TestRestoredDrivesShareNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	src := goldenDrive(env, tailedSectors)
	snap := src.Snapshot()
	pristine := bytes.Clone(snap)

	a, b := New(env, smallParams()), New(env, smallParams())
	for _, d := range []*Disk{a, b} {
		if err := d.Restore(snap); err != nil {
			t.Fatalf("Restore: %v", err)
		}
	}
	// Overwrite everything a holds, then some fresh sectors beyond it.
	rng := sim.NewRand(3)
	a.MediaWrite(0, randomSectors(rng, 3200))
	if !bytes.Equal(src.Snapshot(), pristine) {
		t.Fatal("writing to a restored drive changed its source")
	}
	if !bytes.Equal(b.Snapshot(), pristine) {
		t.Fatal("writing to a restored drive changed its sibling")
	}
	if !bytes.Equal(snap, pristine) {
		t.Fatal("writing to a restored drive changed the snapshot bytes")
	}
	clear(snap)
	if !bytes.Equal(b.Snapshot(), pristine) {
		t.Fatal("a restored drive aliases the bytes it was restored from")
	}
}

// TestRestoreRejectsUnorderedSectors: Snapshot writes sectors in strictly
// increasing LBA order, so a stream that repeats an LBA or runs backwards is
// corrupt — and a rejected Restore leaves the drive as it was.
func TestRestoreRejectsUnorderedSectors(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	src := New(env, smallParams())
	src.MediaWrite(10, randomSectors(sim.NewRand(1), 3))
	good := src.Snapshot()

	// A sector entry is its LBA (8 bytes), a length (4) and the data; the
	// snapshot ends with them.
	const entry = 8 + 4 + geom.SectorSize
	last, prev := len(good)-entry, len(good)-2*entry
	backwards := bytes.Clone(good)
	copy(backwards[prev:last], good[last:])
	copy(backwards[last:], good[prev:last])
	repeated := bytes.Clone(good)
	copy(repeated[last:last+8], good[prev:prev+8])

	dst := New(env, smallParams())
	dst.MediaWrite(500, randomSectors(sim.NewRand(2), 2))
	before := dst.Snapshot()
	for name, bad := range map[string][]byte{"backwards": backwards, "repeated": repeated} {
		if err := dst.Restore(bad); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s LBAs: Restore = %v, want ErrCorrupt", name, err)
		}
		if !bytes.Equal(dst.Snapshot(), before) {
			t.Errorf("%s LBAs: rejected Restore changed the drive", name)
		}
	}
	if err := dst.Restore(good); err != nil {
		t.Fatalf("Restore of the unmodified snapshot: %v", err)
	}
}

// TestAccessWriteAllocations: a dense 4 KB write to fresh sectors carves its
// eight sectors out of a slab, so the store costs one allocation per 16
// writes, not eight per write. The per-LBA map is sized up front here: its
// growth is the runtime's (table splits in bursts, about 0.07 a write when
// averaged over a long run, the same as before the slabs) and would drown
// the number guarded.
func TestAccessWriteAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	const writes = 2000
	d.media = newSectorStore(2 * writes * 8) // AllocsPerRun runs the body twice
	data := make([]byte, 8*geom.SectorSize)
	for i := range data {
		data[i] = byte(i) | 1 // dense: an all-zero sector would carve nothing
	}
	next := int64(0)
	perRun := testing.AllocsPerRun(1, func() {
		env.Go("writer", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				d.Access(p, &Request{Write: true, LBA: next, Count: 8, Data: data})
				next += 8
			}
		})
		env.Run()
	})
	if perWrite := perRun / writes; perWrite > 0.1 {
		t.Fatalf("%.3f allocations per 4 KB write to fresh sectors, want <= 0.1", perWrite)
	}
}

// slabBytes is what s's slabs hold, less the unused tail of the newest.
func slabBytes(s *sectorStore) int {
	n := 0
	for _, slab := range s.slabs {
		n += cap(slab)
	}
	if last := len(s.slabs) - 1; last >= 0 {
		n -= cap(s.slabs[last]) - len(s.slabs[last])
	}
	return n
}

// TestMediaAllocationsFollowContent: the store holds a sector's bytes up to
// its last non-zero one, so a drive of stamped client blocks (a 16-byte
// stamp per sector, as the benchmark's workloads write) costs a small
// fraction of one of dense blocks, and a sector rewritten again and again
// with more bytes each time moves to a full slot once, not once a rewrite.
func TestMediaAllocationsFollowContent(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	const writes = 10000
	stamped, dense := New(env, WDCaviar()), New(env, WDCaviar())
	buf := make([]byte, 8*geom.SectorSize)
	for i := 0; i < writes; i++ {
		lba := int64(i) * 8
		clear(buf)
		for s := 0; s < 8; s++ {
			binary.LittleEndian.PutUint64(buf[s*geom.SectorSize:], uint64(lba)+uint64(s))
			binary.LittleEndian.PutUint64(buf[s*geom.SectorSize+8:], uint64(i+1))
		}
		stamped.MediaWrite(lba, buf)
		for j := range buf {
			buf[j] = byte(i+j) | 1
		}
		dense.MediaWrite(lba, buf)
	}
	for _, tc := range []struct {
		name  string
		d     *Disk
		bound int
	}{{"stamped", stamped, 64}, {"dense", dense, geom.SectorSize}} {
		if per := slabBytes(&tc.d.media) / tc.d.WrittenSectors(); per > tc.bound {
			t.Errorf("%s 4 KB writes hold %d slab bytes a sector, want <= %d", tc.name, per, tc.bound)
		}
	}

	grown := New(env, WDCaviar())
	sec := make([]byte, geom.SectorSize)
	for n := 1; n <= geom.SectorSize; n++ {
		sec[n-1] = byte(n) | 1
		grown.MediaWrite(7, sec)
	}
	if got, want := slabBytes(&grown.media), 16+geom.SectorSize; got > want {
		t.Errorf("a sector rewritten 512 times, growing, holds %d slab bytes, want <= %d (two slots)", got, want)
	}
	if !bytes.Equal(grown.MediaRead(7, 1), sec) {
		t.Error("the grown sector reads back wrong")
	}
}
