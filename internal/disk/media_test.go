package disk

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
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
			switch was, now := geom.Held(old[:]), geom.Held(sec[:]); {
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

// digest is Disk.Digest computed from the model alone.
func (m mediaModel) digest() uint64 {
	lbas := make([]int64, 0, len(m))
	for lba := range m {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	h := fnv.New64a()
	for _, lba := range lbas {
		sec := m[lba]
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(lba)))
		h.Write(sec[:])
	}
	return h.Sum64()
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
// (MediaWrite, timed Access writes, overwrites, MediaZero, carrying on with
// a clone) and holds every way out (MediaRead, timed reads,
// WrittenSectors, Digest) to a plain map of sector values. The LBA range is
// narrow so overwrites are common, and wide enough to carve slabs of every
// size; extents of up to 40 sectors straddle the store's 16-sector groups;
// every sector has a zero tail drawn from zeroTails, so the store's short
// slots, all-zero sectors and full-slot moves are all reached; and all-zero
// extents land on sectors never written, which must count as written.
func TestSectorStoreMatchesModel(t *testing.T) {
	const span = 1500 // LBAs in play
	rng := sim.NewRand(41)
	env := sim.NewEnv()
	defer func() { env.Close() }()
	d := New(env, smallParams())
	model := mediaModel{}
	grew, shrank, straddled, fresh := 0, 0, 0, 0
	write := func(lba int64, data []byte) {
		g, s := model.write(lba, data)
		grew, shrank = grew+g, shrank+s
		if lba/groupSectors != (lba+int64(len(data)/geom.SectorSize)-1)/groupSectors {
			straddled++
		}
	}
	nextFresh := int64(span) // sectors from here on are written once, all zero

	check := func(step int) {
		t.Helper()
		if got := d.WrittenSectors(); got != len(model) {
			t.Fatalf("step %d: WrittenSectors = %d, model holds %d", step, got, len(model))
		}
		if got, want := d.Digest(), model.digest(); got != want {
			t.Fatalf("step %d: Digest = %#x, the model's %#x", step, got, want)
		}
		lba, count := int64(rng.Intn(span)), 1+rng.Intn(40)
		if got := d.MediaRead(lba, count); !bytes.Equal(got, model.read(lba, count)) {
			t.Fatalf("step %d: MediaRead(%d,%d) differs from the model", step, lba, count)
		}
	}
	for step := 0; step < 600; step++ {
		lba, count := int64(rng.Intn(span)), 1+rng.Intn(40)
		switch op := rng.Intn(100); {
		case op < 8:
			data := make([]byte, count*geom.SectorSize)
			d.MediaWrite(nextFresh, data)
			write(nextFresh, data)
			nextFresh += int64(count + rng.Intn(20))
			fresh += count
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
			// Write an extent, carry on with a clone, overwrite every sector
			// in play on the source, then read the extent's last sector from
			// the clone: a clone sharing the source's slabs or groups, or
			// the group the source found last, would see the overwrite.
			data := tailedSectors(rng, count)
			d.MediaWrite(lba, data)
			write(lba, data)
			src := d
			d = d.Clone()
			src.MediaWrite(0, randomSectors(rng, span+40))
			last := lba + int64(count) - 1
			if !bytes.Equal(d.MediaRead(last, 1), model.read(last, 1)) {
				t.Fatalf("step %d: the clone reads sector %d as its source holds it", step, last)
			}
		default:
			// Write an extent, zero the drive, then read and write the
			// extent's last sector: a store that kept the group found last
			// across MediaZero would read the dropped contents back, and
			// put the new ones in a group it no longer indexes.
			d.MediaWrite(lba, tailedSectors(rng, count))
			d.MediaZero()
			model = mediaModel{}
			last := lba + int64(count) - 1
			if !bytes.Equal(d.MediaRead(last, 1), model.read(last, 1)) {
				t.Fatalf("step %d: MediaZero left sector %d", step, last)
			}
			data := tailedSectors(rng, 1)
			d.MediaWrite(last, data)
			write(last, data)
		}
		check(step)
	}
	for lba := range model {
		if got := d.MediaRead(lba, 1); !bytes.Equal(got, model.read(lba, 1)) {
			t.Fatalf("final: sector %d differs from the model", lba)
		}
	}
	if grew == 0 || shrank == 0 || straddled == 0 || fresh == 0 {
		t.Fatalf("overwrites grew %d and shrank %d sectors, %d extents straddled groups and %d all-zero sectors were fresh, want all four",
			grew, shrank, straddled, fresh)
	}
}

// goldenDrive builds a fixed drive state whose media digest is pinned below:
// random extents from sectors with overwrites through both write paths.
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

// TestMediaGoldenDigest pins what the golden drives hold across changes of
// media representation. The digests were recorded at ca10543, whose media
// store is the one the drive's former snapshot pins were last checked
// against, so the state they fingerprint is the one those pinned.
func TestMediaGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sectors func(*sim.Rand, int) []byte
		want    uint64
	}{
		{"dense", randomSectors, 0xd56c9dce2a1ae85b},
		{"zero tails", tailedSectors, 0x0f74b210dfd63adf},
	} {
		env := sim.NewEnv()
		if got := goldenDrive(env, tc.sectors).Digest(); got != tc.want {
			t.Errorf("%s: media digest = %#016x, want %#016x", tc.name, got, tc.want)
		}
		env.Close()
	}
}

// TestClonesShareNothing: writing to a clone changes neither its source nor
// a sibling cloned alongside it, and writing to the source changes no clone.
// The writes overwrite every sector the drives hold, in place and moved to
// full slots, and add fresh ones beyond them.
func TestClonesShareNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	src := goldenDrive(env, tailedSectors)
	pristine := src.Digest()
	a, b := src.Clone(), src.Clone()
	if a.Digest() != pristine || b.Digest() != pristine {
		t.Fatal("a clone does not hold its source's media")
	}
	rng := sim.NewRand(3)
	a.MediaWrite(0, randomSectors(rng, 3200))
	if src.Digest() != pristine {
		t.Fatal("writing to a clone changed its source")
	}
	if b.Digest() != pristine {
		t.Fatal("writing to a clone changed its sibling")
	}
	src.MediaWrite(0, tailedSectors(rng, 3200))
	if b.Digest() != pristine {
		t.Fatal("writing to the source changed a clone")
	}
}

// TestCloneCarriesSeekDerate: SeekDeratePPM is the one Params knob mutable
// mid-run (SetSeekDeratePPM models aging hardware), so a clone must seek at
// its source's derated speed, not at the factory's, and keep the source's
// arm, counters and last-command time: its next timed command costs what the
// source's does.
func TestCloneCarriesSeekDerate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := make([]byte, 4*geom.SectorSize)
	if res := access(env, d, &Request{Write: true, LBA: 0, Count: 4, Data: data}); res.Err != nil {
		t.Fatalf("write: %v", res.Err)
	}
	d.SetSeekDeratePPM(250_000)
	c := d.Clone()
	if got := c.Params().SeekDeratePPM; got != 250_000 {
		t.Fatalf("clone's SeekDeratePPM = %d, want 250000", got)
	}
	if c.Stats() != d.Stats() {
		t.Fatalf("clone's stats %+v, source's %+v", c.Stats(), d.Stats())
	}

	// The derate must be mechanically effective, not just recorded: the
	// clone's long seek costs what the derated source's does, and more than
	// a factory-fresh drive's.
	dist := smallParams().Geom.Cylinders - 1
	if s1, s2 := d.SeekTime(dist), c.SeekTime(dist); s1 != s2 {
		t.Fatalf("seek time diverged after clone: source %v, clone %v", s1, s2)
	}
	if fresh := New(env, smallParams()); c.SeekTime(dist) <= fresh.SeekTime(dist) {
		t.Fatalf("clone's seek %v not slower than factory %v despite 25%% derate",
			c.SeekTime(dist), fresh.SeekTime(dist))
	}
	g := smallParams().Geom
	far := g.TotalSectors() - 4
	var rd, rc Result
	env.Go("source", func(p *sim.Proc) { rd = d.Access(p, &Request{Write: true, LBA: far, Count: 4, Data: data}) })
	env.Go("clone", func(p *sim.Proc) { rc = c.Access(p, &Request{Write: true, LBA: far, Count: 4, Data: data}) })
	env.Run()
	if rd.Err != nil || rd != rc {
		t.Fatalf("next timed write: source %+v, clone %+v", rd, rc)
	}
}

// TestAccessWriteAllocations: a dense 4 KB write to fresh sectors carves its
// eight sectors out of a slab, so the store costs one allocation per 16
// writes, not eight per write, and each write's group of 16 sectors out of
// a batch. The test sizes nothing up front: the group index grows by one
// entry per two writes, so the runtime's table splits stay inside the bound
// (0.0725 a write in all; a per-LBA map made 0.064 sized up front, 0.129 not).
func TestAccessWriteAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	const writes = 2000
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
		if per := tc.d.MediaBytes() / tc.d.WrittenSectors(); per > tc.bound {
			t.Errorf("%s 4 KB writes hold %d slab bytes a sector, want <= %d", tc.name, per, tc.bound)
		}
	}

	grown := New(env, WDCaviar())
	sec := make([]byte, geom.SectorSize)
	for n := 1; n <= geom.SectorSize; n++ {
		sec[n-1] = byte(n) | 1
		grown.MediaWrite(7, sec)
	}
	if got, want := grown.MediaBytes(), 16+geom.SectorSize; got > want {
		t.Errorf("a sector rewritten 512 times, growing, holds %d slab bytes, want <= %d (two slots)", got, want)
	}
	if !bytes.Equal(grown.MediaRead(7, 1), sec) {
		t.Error("the grown sector reads back wrong")
	}
}

// TestSparseMediaAllocations bounds the heap a drive holds for sparse
// writes: 20 000 stamped 4 KB writes at random blocks of a 10 GB drive, the
// shape of the std_deepq benchmark workload, each write filling half of a
// 16-sector group. The bound is what the same writes held, measured by this
// test, when the store kept one index entry a sector (45.6 B a sector); the
// groups hold 35.6. Groups of 128 sectors would hold about 140.
func TestSparseMediaAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	rng := sim.NewRand(1)
	blocks := d.Geom().TotalSectors() / 8
	buf := make([]byte, 8*geom.SectorSize)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 20000; i++ {
		lba := rng.Int64n(blocks) * 8
		for s := 0; s < 8; s++ {
			binary.LittleEndian.PutUint64(buf[s*geom.SectorSize:], uint64(lba)+uint64(s))
			binary.LittleEndian.PutUint64(buf[s*geom.SectorSize+8:], uint64(i+1))
		}
		d.MediaWrite(lba, buf)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(d.WrittenSectors())
	runtime.KeepAlive(d)
	if per > 45.6 {
		t.Fatalf("sparse stamped 4 KB writes hold %.1f heap bytes a sector, want <= 45.6", per)
	}
}
