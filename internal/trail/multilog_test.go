package trail

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// newMultiRig builds a Trail driver over nLogs log disks and one data disk.
func newMultiRig(t *testing.T, nLogs int, cfg Config) (*sim.Env, []*disk.Disk, *disk.Disk, *Driver) {
	t.Helper()
	env := sim.NewEnv()
	var logs []*disk.Disk
	for i := 0; i < nLogs; i++ {
		lg := disk.New(env, testLogParams())
		if err := Format(lg); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, lg)
	}
	data := disk.New(env, testDataParams("data"))
	drv, err := NewDriverMulti(env, logs, []*disk.Disk{data}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, logs, data, drv
}

func TestMultiLogRoundTrip(t *testing.T) {
	env, _, data, drv := newMultiRig(t, 2, Config{})
	defer env.Close()
	dev := drv.Dev(0)
	want := fill(0x5C, 4)
	env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 800, 4, want); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	env.Run()
	if got := data.MediaRead(800, 4); !bytes.Equal(got, want) {
		t.Error("multi-log write lost")
	}
	if drv.NumLogDisks() != 2 {
		t.Errorf("NumLogDisks = %d", drv.NumLogDisks())
	}
}

func TestMultiLogSpreadsRecords(t *testing.T) {
	env, logs, _, drv := newMultiRig(t, 2, Config{})
	defer env.Close()
	dev := drv.Dev(0)
	for i := 0; i < 20; i++ {
		lba := int64(64 * i)
		env.Go("w", func(p *sim.Proc) {
			for j := 0; j < 3; j++ {
				if err := dev.Write(p, lba, 1, fill(1, 1)); err != nil {
					t.Errorf("write: %v", err)
				}
				p.Sleep(time.Millisecond)
			}
		})
	}
	env.Run()
	// Both log disks must have absorbed traffic.
	for i, lg := range logs {
		if lg.Stats().Writes == 0 {
			t.Errorf("log disk %d idle; work not spread", i)
		}
	}
}

// TestMultiLogHidesRepositioning is the §5.1 claim: with two log disks,
// clustered writes do not stall behind track switches, so sustained
// throughput rises.
func TestMultiLogHidesRepositioning(t *testing.T) {
	elapsed := func(nLogs int) time.Duration {
		env, _, _, drv := newMultiRig(t, nLogs, Config{
			// Aggressive threshold: reposition after nearly every record,
			// maximizing the overhead a second log disk can hide.
			UtilizationThreshold: 0.05,
		})
		defer env.Close()
		dev := drv.Dev(0)
		var end sim.Time
		env.Go("client", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				if err := dev.Write(p, int64(i*64), 2, fill(byte(i), 2)); err != nil {
					t.Errorf("write: %v", err)
				}
			}
			end = p.Now()
		})
		env.Run()
		return end.Duration()
	}
	one, two := elapsed(1), elapsed(2)
	if two >= one {
		t.Errorf("2 log disks (%v) not faster than 1 (%v) under clustered writes", two, one)
	}
}

func TestMultiLogCrashRecovery(t *testing.T) {
	env, logs, data, drv := newMultiRig(t, 2, Config{})
	dev := drv.Dev(0)
	const n = 12
	done := 0
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := dev.Write(p, int64(100*(i+1)), 1, fill(byte(i+1), 1)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			done++
		}
		// Rewrite block 3: replay ordering across the two disks must
		// still end with the newest version.
		if err := dev.Write(p, 300, 1, fill(0xEE, 1)); err != nil {
			t.Errorf("rewrite: %v", err)
		}
		done++
	})
	for i := 0; i < 1000 && done <= n; i++ {
		env.RunUntil(env.Now().Add(time.Millisecond))
	}
	if done <= n {
		t.Fatal("workload did not finish logging")
	}
	if drv.OutstandingRecords() == 0 {
		t.Fatal("nothing outstanding at crash time")
	}
	env.Close()

	// Reboot and recover both logs together.
	env2 := sim.NewEnv()
	defer env2.Close()
	for _, lg := range logs {
		lg.Reattach(env2)
	}
	data.Reattach(env2)
	id := blockdev.DevID{Major: 8, Minor: 0}
	devs := map[blockdev.DevID]blockdev.Device{
		id: stddisk.New(env2, data, id, sched.LOOK),
	}
	var rep *RecoverReport
	var err error
	env2.Go("recover", func(p *sim.Proc) {
		rep, err = RecoverLogs(p, logs, devs, RecoverOptions{})
	})
	env2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.RecordsFound == 0 {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < n; i++ {
		want := byte(i + 1)
		if i == 2 {
			want = 0xEE
		}
		if got := data.MediaRead(int64(100*(i+1)), 1); got[0] != want {
			t.Errorf("block %d = %#x, want %#x", i+1, got[0], want)
		}
	}
	// Both disks are clean; a multi-log driver restarts.
	env3 := sim.NewEnv()
	defer env3.Close()
	for _, lg := range logs {
		lg.Reattach(env3)
	}
	data.Reattach(env3)
	if _, err := NewDriverMulti(env3, logs, []*disk.Disk{data}, Config{}); err != nil {
		t.Errorf("restart after multi-log recovery: %v", err)
	}
}

func TestMultiLogRejectsMixedCleanliness(t *testing.T) {
	// One crashed log disk poisons the set: the driver must refuse.
	env, logs, data, drv := newMultiRig(t, 2, Config{})
	dev := drv.Dev(0)
	logged := false
	env.Go("client", func(p *sim.Proc) {
		dev.Write(p, 100, 1, fill(1, 1))
		logged = true
	})
	for i := 0; i < 100 && !logged; i++ {
		env.RunUntil(env.Now().Add(time.Millisecond))
	}
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	for _, lg := range logs {
		lg.Reattach(env2)
	}
	data.Reattach(env2)
	if _, err := NewDriverMulti(env2, logs, []*disk.Disk{data}, Config{}); !errors.Is(err, ErrNeedsRecovery) {
		t.Errorf("driver accepted crashed log disk: %v", err)
	}
}

func TestMultiLogShutdownMarksAllClean(t *testing.T) {
	env, logs, _, drv := newMultiRig(t, 3, Config{})
	defer env.Close()
	dev := drv.Dev(0)
	env.Go("client", func(p *sim.Proc) {
		dev.Write(p, 100, 1, fill(9, 1))
		if err := drv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	env.Run()
	for i, lg := range logs {
		h, err := ReadHeader(lg)
		if err != nil || !h.CleanShutdown {
			t.Errorf("log %d not clean after shutdown: %+v %v", i, h, err)
		}
	}
}

var _ = geom.SectorSize

// TestPinnedLogDiskParksWhileAnotherServes: with two log disks, the one whose
// next track a refused write-back pins parks once the retry fails too, and
// the other takes every write; when that one dies, the parked writer is the
// last and fails the waiting writes with the write-back's error.
func TestPinnedLogDiskParksWhileAnotherServes(t *testing.T) {
	env, _, data, drv := newMultiRig(t, 2, Config{})
	defer env.Close()
	data.SetInjector(&stepFault{badLBA: 0})
	dev := drv.Dev(0)
	var failed error
	env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 0, 8, fill(0xB1, 8)); err != nil {
			t.Errorf("write to the bad extent: %v", err)
		}
		var pinned *logDisk
		for i := 0; i < 1000 && pinned == nil; i++ {
			if err := dev.Write(p, 8+int64(i%64)*8, 8, fill(byte(i)|1, 8)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			for _, ld := range drv.logs {
				if ld.state == parked {
					pinned = ld
				}
			}
		}
		if pinned == nil {
			t.Error("no log disk parked")
			return
		}
		other := drv.logs[1-pinned.idx]
		records := drv.Stats().Records
		for i := 0; i < 100; i++ {
			if err := dev.Write(p, 8+int64(i%64)*8, 8, fill(byte(i)|1, 8)); err != nil {
				t.Errorf("write %d with log%d parked: %v", i, pinned.idx, err)
				return
			}
		}
		if pinned.state != parked || drv.Stats().Records != records+100 {
			t.Errorf("log%d parked %v; %d records logged, want 100", pinned.idx, pinned.state == parked, drv.Stats().Records-records)
		}
		other.disk.SetInjector(&stepFault{dead: true, badLBA: -1})
		failed = dev.Write(p, 8, 8, fill(0xC1, 8))
	})
	env.Run()
	if !errors.Is(failed, blockdev.ErrMediaError) {
		t.Errorf("a write with only the parked log disk left: %v, want the media error", failed)
	}
}
