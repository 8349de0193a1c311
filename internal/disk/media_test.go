package disk

import (
	"bytes"
	"errors"
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// mediaModel is the reference the slab-backed store is held to: one value
// per written LBA, nothing shared.
type mediaModel map[int64][geom.SectorSize]byte

func (m mediaModel) write(lba int64, data []byte) {
	for i := 0; i < len(data)/geom.SectorSize; i++ {
		var sec [geom.SectorSize]byte
		copy(sec[:], data[i*geom.SectorSize:])
		m[lba+int64(i)] = sec
	}
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
// overwrites are common, and wide enough to carve slabs of every size.
func TestSectorStoreMatchesModel(t *testing.T) {
	const span = 1500 // LBAs in play
	rng := sim.NewRand(41)
	env := sim.NewEnv()
	defer func() { env.Close() }()
	d := New(env, smallParams())
	model := mediaModel{}

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
			data := randomSectors(rng, count)
			d.MediaWrite(lba, data)
			model.write(lba, data)
		case op < 85:
			data := randomSectors(rng, count)
			if res := access(env, d, &Request{Write: true, LBA: lba, Count: count, Data: data}); res.Err != nil {
				t.Fatalf("step %d: write: %v", step, res.Err)
			}
			model.write(lba, data)
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
}

// goldenDrive builds the fixed drive state whose snapshot digest is pinned
// below: random extents with overwrites through both write paths.
func goldenDrive(env *sim.Env) *Disk {
	d := New(env, smallParams())
	rng := sim.NewRand(7)
	for i := 0; i < 200; i++ {
		lba, count := int64(rng.Intn(3000)), 1+rng.Intn(12)
		data := randomSectors(rng, count)
		if i%5 == 0 {
			access(env, d, &Request{Write: true, LBA: lba, Count: count, Data: data})
		} else {
			d.MediaWrite(lba, data)
		}
	}
	return d
}

// TestSnapshotGoldenDigest pins Snapshot's bytes across the change of media
// representation: the digest was recorded with one heap object per sector.
func TestSnapshotGoldenDigest(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	const want = 0x88f698f0aebbfc25
	if got := snapshot.Digest(goldenDrive(env).Snapshot()); got != want {
		t.Fatalf("snapshot digest = %#016x, want %#016x", got, uint64(want))
	}
}

// TestRestoredDrivesShareNothing: writing to a restored drive changes neither
// the source, nor a sibling restored from the same bytes, and none of them
// keeps a reference into the snapshot bytes it was restored from.
func TestRestoredDrivesShareNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	src := goldenDrive(env)
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

// TestAccessWriteAllocations: a 4 KB write to fresh sectors carves its eight
// sectors out of a slab, so the store costs one allocation per 16 writes, not
// eight per write. The per-LBA map is sized up front here: its growth is the
// runtime's (table splits in bursts, about 0.07 a write when averaged over a
// long run, the same as before the slabs) and would drown the number guarded.
func TestAccessWriteAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, WDCaviar())
	const writes = 2000
	d.media = newSectorStore(2 * writes * 8) // AllocsPerRun runs the body twice
	data := make([]byte, 8*geom.SectorSize)
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
