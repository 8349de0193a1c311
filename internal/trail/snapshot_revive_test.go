package trail

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Regression: Restore validated that the snapshot captured an open, healthy
// driver but never adopted that state — restoring into a driver that had
// been Shutdown (or had failed) since the capture left it dead, silently
// diverging from the snapshotted world. Restore must revive the driver.
func TestRestoreRevivesShutdownDriver(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)

	r.env.Go("writer", func(p *sim.Proc) {
		if err := dev.Write(p, 0, 2, fill(0xAA, 2)); err != nil {
			t.Errorf("write: %v", err)
		}
		p.Sleep(50 * time.Millisecond) // drain write-back to quiescence
	})
	r.env.Run()
	if err := r.drv.Quiescent(); err != nil {
		t.Fatalf("not quiescent before snapshot: %v", err)
	}
	snap := r.drv.Snapshot()

	r.env.Go("closer", func(p *sim.Proc) {
		if err := r.drv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	r.env.Run()

	if err := r.drv.Restore(snap); err != nil {
		t.Fatalf("Restore into shut-down driver: %v", err)
	}
	r.env.Go("writer2", func(p *sim.Proc) {
		if err := dev.Write(p, 4, 2, fill(0xBB, 2)); err != nil {
			t.Errorf("write after restore: %v (driver still closed?)", err)
		}
	})
	r.env.Run()
}

// StagedBytes is a running counter, not a walk of the staging map; Restore
// replaces the map and must rebuild the counter with it. A quiescent driver
// only has staged entries for the instant between an ack and its write-back
// flight, so the state is staged by hand.
func TestRestoreRebuildsStagedBytes(t *testing.T) {
	src := newRig(t, 1, Config{})
	defer src.env.Close()
	ld := src.drv.logs[0]
	rec := &record{seq: 1, log: ld, blocks: 3}
	ld.outstanding.Push(rec)
	ld.busyCount[0]++
	src.drv.stage(&pendingWrite{lba: 8, count: 2, data: fill(0xAA, 2)}, rec)
	src.drv.stage(&pendingWrite{lba: 64, count: 1, data: fill(0xBB, 1)}, rec)
	const want = 3 * geom.SectorSize
	if got := src.drv.StagedBytes(); got != want {
		t.Fatalf("StagedBytes = %d after staging 3 sectors, want %d", got, want)
	}
	snap := src.drv.Snapshot()

	// dst has a write-back of its own queued: Restore replaces its queue with
	// the snapshot's rather than adding to it.
	dst := newRig(t, 1, Config{})
	defer dst.env.Close()
	dld := dst.drv.logs[0]
	drec := &record{seq: 1, log: dld, blocks: 1}
	dld.outstanding.Push(drec)
	dld.busyCount[0]++
	dst.drv.stage(&pendingWrite{lba: 200, count: 1, data: fill(0xCC, 1)}, drec)
	if err := dst.drv.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(dst.drv.Snapshot(), snap) {
		t.Error("the restored driver does not snapshot to the bytes it was restored from")
	}
	if got := dst.drv.StagedBytes(); got != want {
		t.Errorf("StagedBytes = %d after Restore, want %d", got, want)
	}
	if err := dst.drv.CheckInvariants(); err != nil {
		t.Errorf("after Restore: %v", err)
	}
	// The restored write-back queue drains and releases both buffers.
	dst.env.Run()
	if got := dst.drv.StagedBytes(); got != 0 {
		t.Errorf("StagedBytes = %d after write-back drained, want 0", got)
	}
	if err := dst.drv.CheckInvariants(); err != nil {
		t.Errorf("after drain: %v", err)
	}
}
