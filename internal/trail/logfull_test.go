package trail

import (
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// tinyLogParams returns a log disk with very few usable tracks, so the
// circular allocator wraps quickly.
func tinyLogParams() disk.Params {
	p := testLogParams()
	p.Geom = geom.Uniform(3, 2, 60) // 6 tracks, 3 reserved -> 3 usable
	p.Geom.TrackSkew = 4
	return p
}

// slowDataParams returns a data disk whose writes crawl, so write-back
// cannot keep up and the log fills.
func slowDataParams() disk.Params {
	p := testDataParams("slow")
	p.SeekT2T = 20 * time.Millisecond
	p.SeekAvg = 60 * time.Millisecond
	p.SeekMax = 120 * time.Millisecond
	p.WriteOverhead = 10 * time.Millisecond
	return p
}

func TestLogFullStallsAndRecovers(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, tinyLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, slowDataParams())
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	const writes = 40
	completed := 0
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < writes; i++ {
			if err := dev.Write(p, int64(i*64), 8, fill(byte(i), 8)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			completed++
		}
	})
	env.Run()
	if completed != writes {
		t.Fatalf("only %d of %d writes completed; log-full deadlock?", completed, writes)
	}
	s := drv.Stats()
	if s.LogFullStalls == 0 {
		t.Error("no log-full stalls recorded; test not exercising the path")
	}
	// Everything still lands on the data disk, intact.
	for i := 0; i < writes; i++ {
		if got := data.MediaRead(int64(i*64), 1); got[0] != byte(i) {
			t.Errorf("block %d lost after log-full cycling", i)
		}
	}
	// The allocator wrapped the tiny log disk at least once.
	if s.Repositions < 4 {
		t.Errorf("repositions = %d; allocator never cycled", s.Repositions)
	}
}

func TestLogWrapsManyTimesSafely(t *testing.T) {
	// Sustained writes across many wraps of a tiny log: FIFO reclamation
	// must keep freeing tracks ahead of the tail indefinitely.
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, tinyLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, testDataParams("d"))
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			if err := dev.Write(p, int64((i%50)*16), 4, fill(byte(i), 4)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	env.Run()
	if drv.OutstandingRecords() != 0 {
		t.Errorf("outstanding = %d after drain", drv.OutstandingRecords())
	}
	// Final values visible: each lba holds its last writer's byte.
	for slot := 0; slot < 50; slot++ {
		last := byte(slot + 250)
		if slot >= 50 {
			break
		}
		got := data.MediaRead(int64(slot*16), 1)
		if got[0] != last {
			t.Errorf("slot %d = %#x, want %#x", slot, got[0], last)
		}
	}
}

// TestAbandonedWriteBackDoesNotHangTheLog: a write-back the data disk refuses
// is abandoned and its log record stays pinned. When the tail wraps to that
// record's track, the stall queues the write-back again; while the platter
// still refuses it, every write waiting on the log returns an error wrapping
// the media error instead of waiting forever, and once the platter heals the
// retry lands, frees the track and writes succeed again.
func TestAbandonedWriteBackDoesNotHangTheLog(t *testing.T) {
	r := newRig(t, 2, Config{})
	defer r.env.Close()
	fault := &stepFault{badLBA: 0}
	r.data[1].SetInjector(fault)
	const failing, healed = 3, 20
	var ok, errs []int
	r.env.Go("client", func(p *sim.Proc) {
		if err := r.drv.Dev(1).Write(p, 0, 8, fill(0xB1, 8)); err != nil {
			t.Errorf("write to the bad extent: %v", err)
		}
		for i := 0; len(errs) < failing && i < 1000; i++ {
			err := r.drv.Dev(0).Write(p, int64(i%64)*8, 8, fill(byte(i)|1, 8))
			switch {
			case err == nil:
				ok = append(ok, i)
			case errors.Is(err, blockdev.ErrMediaError):
				errs = append(errs, i)
			default:
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		fault.badLBA = -1
		for i := 0; i < healed; i++ {
			if err := r.drv.Dev(0).Write(p, int64(i)*8, 8, fill(0xC1, 8)); err != nil {
				t.Errorf("write %d after the platter healed: %v", i, err)
			}
			if len(r.drv.abandoned) != 0 {
				t.Errorf("write %d after the platter healed: %d entries still listed abandoned", i, len(r.drv.abandoned))
			}
		}
	})
	r.env.Run()
	if len(errs) != failing {
		t.Fatalf("%d writes failed and %d succeeded before the client stopped; want %d failures",
			len(errs), len(ok), failing)
	}
	if len(ok) != errs[0] || errs[len(errs)-1] != errs[0]+failing-1 {
		t.Errorf("writes succeeded %v, failed %v: want every write before the first failure to succeed, none after", ok, errs)
	}
	// Each failed write waited for one retry of the refused write-back, and
	// nothing else retried it.
	if st := r.drv.Stats(); st.AbandonedWritebacks != 1+failing || st.FailedWrites != failing {
		t.Errorf("%d abandoned write-backs, %d failed writes; want %d, %d",
			st.AbandonedWritebacks, st.FailedWrites, 1+failing, failing)
	}
	if r.drv.OutstandingRecords() != 0 || r.drv.StagedBytes() != 0 {
		t.Errorf("%d records outstanding, %d bytes staged after the drain",
			r.drv.OutstandingRecords(), r.drv.StagedBytes())
	}
	if got := r.data[1].MediaRead(0, 1); got[0] != 0xB1 {
		t.Errorf("the retried extent holds %#x on its platter, want 0xb1", got[0])
	}
}

// TestStalledWriterWakesWhenTheDrivesDie: the one log disk's writer stalls on
// a full log, then every drive dies. The write-backs pinning its next track
// fail and are abandoned, which wakes the writer; their retry fails too, and
// every write waiting in the log queue returns an error wrapping
// ErrDeviceFailed instead of waiting forever.
func TestStalledWriterWakesWhenTheDrivesDie(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, tinyLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, slowDataParams())
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var errs []error
	for c := 0; c < clients; c++ {
		env.Go("client", func(p *sim.Proc) {
			for i := 0; ; i++ {
				if err := drv.Dev(0).Write(p, int64(c*64+i%64)*8, 8, fill(byte(i)|1, 8)); err != nil {
					errs = append(errs, err)
					return
				}
			}
		})
	}
	queued := 0
	env.Go("killer", func(p *sim.Proc) {
		for drv.Stats().LogFullStalls == 0 || drv.LogQueueLen() == 0 {
			p.Sleep(100 * time.Microsecond)
		}
		queued = drv.LogQueueLen()
		log.SetInjector(&stepFault{dead: true, badLBA: -1})
		data.SetInjector(&stepFault{dead: true, badLBA: -1})
	})
	env.Run()
	if queued == 0 {
		t.Fatal("the drives died before the writer stalled")
	}
	if len(errs) != clients {
		t.Fatalf("%d of %d clients' writes returned after the drives died (%d were queued)", len(errs), clients, queued)
	}
	for _, err := range errs {
		if !errors.Is(err, blockdev.ErrDeviceFailed) {
			t.Errorf("write after the drives died: %v, want ErrDeviceFailed", err)
		}
	}
	if err := drv.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
