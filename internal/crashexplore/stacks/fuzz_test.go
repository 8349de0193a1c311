package stacks_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// snapshotter is a component with a checkpoint format: the drive, the fault
// plan and the kernel.
type snapshotter interface {
	Snapshot() []byte
}

// restorer is a format that a reader decodes: a drive's media and a fault
// plan's state, the durable state a power cut leaves behind.
type restorer interface {
	snapshotter
	Restore(data []byte) error
}

// digest is a snapshot's FNV-64a, the form the golden pins use.
func digest(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

func logParams() disk.Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew = 4
	g.CylSkew = 8
	return disk.Params{
		Name:            "traillog",
		RPM:             6000,
		Geom:            g,
		SeekT2T:         800 * time.Microsecond,
		SeekAvg:         4 * time.Millisecond,
		SeekMax:         8 * time.Millisecond,
		HeadSwitch:      400 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   500 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

func dataParams() disk.Params {
	p := logParams()
	p.Name = "d"
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// trailRig builds a Trail driver over a formatted log drive and one data
// drive under a fault plan with one latent read error.
func trailRig(tb testing.TB, env *sim.Env) (log, data *disk.Disk, plan *fault.Plan, drv *trail.Driver) {
	log = disk.New(env, logParams())
	if err := trail.Format(log); err != nil {
		tb.Fatal(err)
	}
	data = disk.New(env, dataParams())
	plan = fault.Attach(data, sim.NewRand(17), fault.Config{LatentReadErrors: 1})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return log, data, plan, drv
}

// fuzzTargets assembles one instance of every format on a fresh environment.
// Kept cheap: no workload, just construction. The Trail driver and the three
// scheduled devices are built as when the kernel's pin was recorded: each
// starts processes that the kernel's snapshot lists.
func fuzzTargets(tb testing.TB) (*sim.Env, map[string]snapshotter) {
	env := sim.NewEnv()
	log, _, plan, _ := trailRig(tb, env)
	for i := 0; i < 3; i++ {
		stddisk.New(env, disk.New(env, dataParams()), blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK)
	}
	return env, map[string]snapshotter{"disk": log, "fault": plan, "env": env}
}

// burstSnapshots runs a deterministic write burst through a Trail rig to
// quiescence and returns what is left to snapshot: the kernel, the log
// drive, the data drive and its fault plan.
func burstSnapshots(tb testing.TB, writes int) [][]byte {
	env := sim.NewEnv()
	defer env.Close()
	log, data, plan, drv := trailRig(tb, env)
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			buf := crashexplore.Payload(i%8, i/8+1, 2)
			if err := drv.Dev(0).Write(p, int64((i%8)*64), 2, buf); err != nil {
				tb.Errorf("write %d: %v", i, err)
				return
			}
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()
	return [][]byte{env.Snapshot(), log.Snapshot(), data.Snapshot(), plan.Snapshot()}
}

// disordered returns, by target and corruption, the sorted-key sections
// snapshot.SortedMap must refuse: a fault plan's latent errors (LBA, onset,
// two flags) and a drive's written sectors (LBA, length, bytes), each with
// its first two keys swapped, its first key repeated, and its last key moved
// past the end of the device. The plan covers fuzzTargets' data disk and the
// drive is a log disk like fuzzTargets' own, so only the keys are wrong.
func disordered(tb testing.TB) map[string][]byte {
	g := dataParams().Geom
	plan := fault.NewPlan(sim.NewRand(3), g.TotalSectors(), fault.Config{LatentReadErrors: 3}).Snapshot()
	drive := evolved(tb, 0)["disk"].Snapshot()
	out := map[string][]byte{}
	for _, sec := range []struct {
		target string
		snap   []byte
		off    int // of the section's count, past the header and the fields before it
		size   int // of one entry, key first
	}{
		{"fault", plan, len("fault.Plan") + 10 + 8 + 10*8, 8 + 8 + 2},
		{"disk", drive, len("disk.Disk") + 10 + 4 + len(logParams().Name) + 5*8 + 9*8, 8 + 4 + geom.SectorSize},
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
// three (latents [900, 100, 1<<40] came back as three latent errors).
func TestRestoreRejectsDisorderedKeys(t *testing.T) {
	env, targets := fuzzTargets(t)
	defer env.Close()
	for name, data := range disordered(t) {
		target, _, _ := strings.Cut(name, "/")
		r := targets[target].(restorer)
		before := r.Snapshot()
		if err := r.Restore(data); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: Restore = %v, want ErrCorrupt", name, err)
		}
		if !bytes.Equal(r.Snapshot(), before) {
			t.Errorf("%s: a rejected Restore changed the %s", name, target)
		}
	}
}

// FuzzSnapshotRestore throws arbitrary bytes at both Restores. The contract:
// never panic, and every rejection is a wrapped codec sentinel (ErrCorrupt,
// ErrMismatch, or ErrNotQuiescent) so callers can triage.
func FuzzSnapshotRestore(f *testing.F) {
	// Corpus: the real snapshot of every format.
	env, targets := fuzzTargets(f)
	for _, s := range targets {
		f.Add(s.Snapshot())
	}
	// A drive snapshot ends with its sector entries (LBA, length, 512 bytes)
	// in increasing LBA order; one with the last two swapped, one with the
	// last LBA repeated, and one whose last sector is a byte short are
	// corrupt.
	const entry = 8 + 4 + geom.SectorSize
	drive := targets["disk"].Snapshot()
	last, prev := len(drive)-entry, len(drive)-2*entry
	backwards := append(append(bytes.Clone(drive[:prev]), drive[last:]...), drive[prev:last]...)
	f.Add(backwards)
	repeated := bytes.Clone(drive)
	copy(repeated[last:last+8], drive[prev:prev+8])
	f.Add(repeated)
	short := bytes.Clone(drive[:len(drive)-1])
	binary.LittleEndian.PutUint32(short[last+8:], geom.SectorSize-1)
	f.Add(short)
	// Well-formed snapshots of another drive and of a plan for another
	// device size: the header matches, the identity does not.
	f.Add(disk.New(env, dataParams()).Snapshot())
	f.Add(fault.NewPlan(sim.NewRand(3), 1000, fault.Config{LatentReadErrors: 3}).Snapshot())
	env.Close()
	// Every format after a Trail rig has done real work: a log drive holding
	// records, a data drive holding written-back blocks.
	for _, data := range burstSnapshots(f, 12) {
		f.Add(data)
	}
	// Both formats after a workload that leaves real state behind: many
	// sectors, healed latent errors, pending timeouts.
	ev := evolved(f, 0)
	f.Add(ev["disk"].Snapshot())
	f.Add(ev["fault"].Snapshot())
	f.Add([]byte{})
	f.Add([]byte("TLSS"))
	for _, data := range disordered(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		env, targets := fuzzTargets(t)
		defer env.Close()
		for name, s := range targets {
			r, ok := s.(restorer)
			if !ok {
				continue
			}
			err := r.Restore(data)
			if err != nil && !errors.Is(err, snapshot.ErrCorrupt) &&
				!errors.Is(err, snapshot.ErrMismatch) &&
				!errors.Is(err, snapshot.ErrNotQuiescent) {
				t.Fatalf("%s: non-sentinel restore error: %v", name, err)
			}
		}
	})
}
