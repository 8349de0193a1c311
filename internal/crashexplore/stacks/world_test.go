package stacks_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

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

func worldLogParams() disk.Params {
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

func worldDataParams() disk.Params {
	p := worldLogParams()
	p.Name = "d"
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// buildTrailWorld assembles a Trail rig, runs a deterministic write burst to
// quiescence, and registers every component in a World.
func buildTrailWorld(t testing.TB, writes int) (*crashexplore.World, *trail.Driver) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	log := disk.New(env, worldLogParams())
	if err := trail.Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, worldDataParams())
	plan := fault.Attach(data, sim.NewRand(17), fault.Config{LatentReadErrors: 1})
	drv, err := trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			buf := crashexplore.Payload(i%8, i/8+1, 2)
			if err := dev.Write(p, int64((i%8)*64), 2, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			p.Sleep(300 * time.Microsecond)
		}
	})
	env.Run()

	w := crashexplore.NewWorld(env)
	w.Register("disk.log", log)
	w.Register("disk.data", data)
	w.Register("fault.data", plan)
	w.Register("trail", drv)
	return w, drv
}

// TestWorldSnapshotRestore checkpoints a quiescent Trail world, restores the
// checkpoint in place, and requires the restored world to be byte-identical
// — then proves it is still live by writing through it.
func TestWorldSnapshotRestore(t *testing.T) {
	w, drv := buildTrailWorld(t, 40)
	s1 := w.Snapshot()
	if err := w.Restore(s1); err != nil {
		t.Fatalf("restoring own checkpoint: %v", err)
	}
	s2 := w.Snapshot()
	if !bytes.Equal(s1, s2) {
		t.Fatal("world differs after restoring its own checkpoint")
	}
	if snapshot.Digest(s1) != snapshot.Digest(s2) {
		t.Fatal("digest mismatch")
	}

	// The restored world keeps running.
	env := w.Env()
	env.Go("after", func(p *sim.Proc) {
		if err := drv.Dev(0).Write(p, 4096, 1, crashexplore.Payload(1, 9, 1)); err != nil {
			t.Errorf("post-restore write: %v", err)
		}
	})
	env.Run()
	if bytes.Equal(s1, w.Snapshot()) {
		t.Fatal("world unchanged after post-restore write")
	}
}

// TestWorldSnapshotIdentical builds two independent rigs running the same
// deterministic workload; their world snapshots must be byte-identical —
// the state-level statement of "a restored world equals a never-snapshotted
// run".
func TestWorldSnapshotIdentical(t *testing.T) {
	w1, _ := buildTrailWorld(t, 40)
	w2, _ := buildTrailWorld(t, 40)
	if !bytes.Equal(w1.Snapshot(), w2.Snapshot()) {
		t.Fatal("identical runs produced different world snapshots")
	}
}

// TestWorldRestoreDiverged restores a stale checkpoint into a world that has
// since moved on: the component sections adopt, but the kernel verification
// must flag the divergence.
func TestWorldRestoreDiverged(t *testing.T) {
	w, drv := buildTrailWorld(t, 20)
	s1 := w.Snapshot()
	env := w.Env()
	env.Go("more", func(p *sim.Proc) {
		if err := drv.Dev(0).Write(p, 4096, 1, crashexplore.Payload(2, 3, 1)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	env.Run()
	err := w.Restore(s1)
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("restore into a diverged world: err = %v, want ErrMismatch", err)
	}
}

// TestWorldRestoreWrongShape rejects snapshots whose component sets differ.
func TestWorldRestoreWrongShape(t *testing.T) {
	w1, _ := buildTrailWorld(t, 10)
	s := w1.Snapshot()

	env := sim.NewEnv()
	defer env.Close()
	w2 := crashexplore.NewWorld(env)
	w2.Register("disk.log", disk.New(env, worldLogParams()))
	err := w2.Restore(s)
	if !errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("restore with missing components: err = %v, want ErrMismatch", err)
	}
	if err := w2.Restore([]byte("garbage")); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("restore of garbage: err = %v, want ErrCorrupt", err)
	}
}

// TestComponentRoundTrips snapshots and restores each remaining component
// type in place and requires byte-identical re-encoding.
func TestComponentRoundTrips(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()

	// stddisk device with some traffic.
	sd := stddisk.New(env, disk.New(env, worldDataParams()), blockdev.DevID{Major: 4, Minor: 2}, sched.LOOK)

	// RAID-5 array over three members.
	var members []blockdev.Device
	for i := 0; i < 3; i++ {
		members = append(members, stddisk.New(env, disk.New(env, worldDataParams()),
			blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK))
	}
	arr, err := raid.New(members, 8)
	if err != nil {
		t.Fatal(err)
	}

	// WAL and transaction manager over an instant device.
	wlog, err := wal.New(env, wal.Config{
		Dev:     disk.NewInstantDev(disk.New(env, worldDataParams()), blockdev.DevID{Major: 3, Minor: 0}),
		Sectors: 512,
		Mode:    wal.SyncEveryCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(env, wlog)

	env.Go("traffic", func(p *sim.Proc) {
		if err := sd.Write(p, 10, 1, crashexplore.Payload(0, 1, 1)); err != nil {
			t.Errorf("stddisk write: %v", err)
		}
		if err := arr.Write(p, 0, 1, crashexplore.Payload(1, 1, 1)); err != nil {
			t.Errorf("raid write: %v", err)
		}
		if _, err := wlog.Append(p, []byte("rec-1")); err != nil {
			t.Errorf("wal append: %v", err)
		}
		if err := wlog.Flush(p); err != nil {
			t.Errorf("wal flush: %v", err)
		}
		tx := mgr.Begin()
		tx.Abort(p)
	})
	env.Run()

	for _, c := range []struct {
		name string
		s    snapshot.Snapshotter
	}{
		{"stddisk", sd},
		{"raid", arr},
		{"wal", wlog},
		{"txn", mgr},
		{"rand", sim.NewRand(99)},
	} {
		s1 := c.s.Snapshot()
		if err := c.s.Restore(s1); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		if !bytes.Equal(s1, c.s.Snapshot()) {
			t.Fatalf("%s: differs after round trip", c.name)
		}
		if err := c.s.Restore([]byte("garbage")); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("%s: garbage restore err = %v, want ErrCorrupt", c.name, err)
		}
		other := snapshot.Encode(fmt.Sprintf("other.%s", c.name), 1, func(*snapshot.Codec) {})
		if err := c.s.Restore(other); !errors.Is(err, snapshot.ErrMismatch) {
			t.Fatalf("%s: wrong-kind restore err = %v, want ErrMismatch", c.name, err)
		}
	}
}
