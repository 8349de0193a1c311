package stacks_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/raid"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// fuzzTargets assembles one instance of every Snapshotter in the tree on a
// fresh environment. Kept cheap: no workload, just construction.
func fuzzTargets(tb testing.TB) (*sim.Env, map[string]snapshot.Snapshotter) {
	env := sim.NewEnv()
	log := disk.New(env, worldLogParams())
	if err := trail.Format(log); err != nil {
		tb.Fatal(err)
	}
	data := disk.New(env, worldDataParams())
	plan := fault.Attach(data, sim.NewRand(17), fault.Config{LatentReadErrors: 1})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	var members []blockdev.Device
	for i := 0; i < 3; i++ {
		members = append(members, stddisk.New(env, disk.New(env, worldDataParams()),
			blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK))
	}
	arr, err := raid.New(members, 8)
	if err != nil {
		tb.Fatal(err)
	}
	wlog, err := wal.New(env, wal.Config{
		Dev:     disk.NewInstantDev(disk.New(env, worldDataParams()), blockdev.DevID{Major: 3, Minor: 0}),
		Sectors: 512,
		Mode:    wal.SyncEveryCommit,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return env, map[string]snapshot.Snapshotter{
		"disk":    log,
		"fault":   plan,
		"trail":   drv,
		"stddisk": members[0].(snapshot.Snapshotter),
		"raid":    arr,
		"wal":     wlog,
		"txn":     txn.NewManager(env, wlog),
		"rand":    sim.NewRand(99),
		"env":     env,
	}
}

// pinnedStagingSnapshot snapshots a quiescent driver that still holds staged
// blocks: every sector of their extents fails its write-back, so the two
// overlapping extents stay pinned in staging with their log references.
func pinnedStagingSnapshot(tb testing.TB) []byte {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, worldLogParams())
	if err := trail.Format(log); err != nil {
		tb.Fatal(err)
	}
	data := disk.New(env, worldDataParams())
	fault.Attach(data, sim.NewRand(5), fault.Config{LatentWriteErrors: 16, MaxLBA: 16})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	env.Go("writer", func(p *sim.Proc) {
		for _, w := range [][2]int{{0, 16}, {8, 8}} {
			if err := drv.Dev(0).Write(p, int64(w[0]), w[1], crashexplore.Payload(w[0], 1, w[1])); err != nil {
				tb.Errorf("write: %v", err)
			}
		}
	})
	env.Run()
	if drv.StagedBytes() != 24*geom.SectorSize {
		tb.Fatalf("%d bytes pinned in staging, want both extents", drv.StagedBytes())
	}
	return drv.Snapshot()
}

// disordered returns, by target and corruption, the sorted-key sections
// snapshot.SortedMap must refuse: a fault plan's latent errors (LBA, onset,
// two flags) and the first RAID member's bad sectors (LBAs), each with its
// first two keys swapped, its first key repeated, and its last key moved
// past the end of the device. The plan covers fuzzTargets' data disk and the
// array has fuzzTargets' shape, so only the keys are wrong.
func disordered(tb testing.TB) map[string][]byte {
	g := worldDataParams().Geom
	plan := fault.NewPlan(sim.NewRand(3), g.TotalSectors(), fault.Config{LatentReadErrors: 3}).Snapshot()
	raid := evolved(tb, 0)["raid"].Snapshot()
	out := map[string][]byte{}
	for _, sec := range []struct {
		target string
		snap   []byte
		off    int // of the section's count, past the header and the fields before it
		size   int // of one entry, key first
	}{
		{"fault", plan, len("fault.Plan") + 10 + 8 + 10*8, 8 + 8 + 2},
		{"raid", raid, len("raid.Array") + 10 + 3*8, 8},
	} {
		n := int(binary.LittleEndian.Uint32(sec.snap[sec.off:]))
		if n < 2 {
			tb.Fatalf("%s: %d keys in the section, want at least two", sec.target, n)
		}
		first, second, last := sec.off+4, sec.off+4+sec.size, sec.off+4+(n-1)*sec.size
		swapped := bytes.Clone(sec.snap)
		copy(swapped[first:], sec.snap[second:second+sec.size])
		copy(swapped[second:], sec.snap[first:second])
		repeated := bytes.Clone(sec.snap)
		copy(repeated[second:second+8], sec.snap[first:first+8])
		past := bytes.Clone(sec.snap)
		binary.LittleEndian.PutUint64(past[last:], 1<<40)
		out[sec.target+"/swapped"], out[sec.target+"/repeated"], out[sec.target+"/past-the-end"] = swapped, repeated, past
	}
	return out
}

// TestRestoreRejectsDisorderedKeys: a sorted-key section with keys swapped,
// repeated or past the device is corrupt. At 5cdd678 the plan adopted all
// three (latents [900, 100, 1<<40] came back as three latent errors) and so
// did the array.
func TestRestoreRejectsDisorderedKeys(t *testing.T) {
	env, targets := fuzzTargets(t)
	defer env.Close()
	for name, data := range disordered(t) {
		target, _, _ := strings.Cut(name, "/")
		before := targets[target].Snapshot()
		if err := targets[target].Restore(data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCorrupt", name, err)
		}
		if !bytes.Equal(targets[target].Snapshot(), before) {
			t.Errorf("%s: a rejected Restore changed the %s", name, target)
		}
	}
}

// FuzzSnapshotRestore throws arbitrary bytes at every component's Restore.
// The contract: never panic, and every rejection is a wrapped codec sentinel
// (ErrCorrupt, ErrMismatch, or ErrNotQuiescent) so callers can triage.
func FuzzSnapshotRestore(f *testing.F) {
	// Corpus: the real snapshot of every component, plus a World checkpoint
	// of a rig that has done real work.
	env, targets := fuzzTargets(f)
	for _, s := range targets {
		f.Add(s.Snapshot())
	}
	// A drive snapshot ends with its sector entries (LBA, length, 512 bytes)
	// in increasing LBA order; one with the last two swapped, and one with
	// the last LBA repeated, are corrupt.
	const entry = 8 + 4 + geom.SectorSize
	drive := targets["disk"].Snapshot()
	last, prev := len(drive)-entry, len(drive)-2*entry
	backwards := append(append(bytes.Clone(drive[:prev]), drive[last:]...), drive[prev:last]...)
	f.Add(backwards)
	repeated := bytes.Clone(drive)
	copy(repeated[last:last+8], drive[prev:prev+8])
	f.Add(repeated)
	env.Close()
	w, _ := buildTrailWorld(f, 12)
	f.Add(w.Snapshot())
	// A driver snapshot whose staging buffer is not empty, so the per-entry
	// stage stamps (codec version 2) are in the corpus, and the same bytes
	// under the version-1 header they no longer parse under.
	pinned := pinnedStagingSnapshot(f)
	f.Add(pinned)
	v1 := bytes.Clone(pinned)
	v1[bytes.Index(v1, []byte("trail.Driver"))+len("trail.Driver")] = 1
	f.Add(v1)
	f.Add([]byte{})
	f.Add([]byte("TLSS"))
	for _, data := range disordered(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, targets := fuzzTargets(t)
		defer env.Close()
		world := crashexplore.NewWorld(env)
		names := make([]string, 0, len(targets))
		for name := range targets {
			names = append(names, name)
		}
		for _, name := range names {
			if name == "env" {
				continue // the kernel is the World's own section
			}
			world.Register(name, targets[name])
		}
		check := func(name string, err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, snapshot.ErrCorrupt) &&
				!errors.Is(err, snapshot.ErrMismatch) &&
				!errors.Is(err, snapshot.ErrNotQuiescent) {
				t.Fatalf("%s: non-sentinel restore error: %v", name, err)
			}
		}
		for name, s := range targets {
			check(name, s.Restore(data))
		}
		check("world", world.Restore(data))
	})
}
