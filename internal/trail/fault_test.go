package trail

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// TestLogWriteTimeoutRetried checks that transient command timeouts on the
// log disk are absorbed by the driver's retry path: every client write still
// succeeds, and the retry counters show the faults were actually hit.
func TestLogWriteTimeoutRetried(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	plan := fault.Attach(r.log, sim.NewRand(42), fault.Config{
		Timeouts:      2,
		TimeoutWindow: 20,
	})
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if err := dev.Write(p, int64(i*8), 2, fill(byte(i), 2)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	r.env.Run()

	if got := plan.Stats().Timeouts; got != 2 {
		t.Errorf("injected timeouts fired %d times, want 2", got)
	}
	st := r.drv.Stats()
	if st.LogWriteRetries+st.LogRefRetries == 0 {
		t.Errorf("no retries recorded despite %d timeouts: %+v", plan.Stats().Timeouts, st)
	}
	if st.FailedWrites != 0 {
		t.Errorf("transient faults must not fail writes: %d failed", st.FailedWrites)
	}
}

// TestAllLogDisksFailedWritesFail kills the only log disk mid-run and checks
// that the driver fails cleanly: queued and subsequent writes surface
// blockdev.ErrDeviceFailed instead of blocking forever, and nothing that
// failed was acknowledged.
func TestAllLogDisksFailedWritesFail(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	fault.Attach(r.log, sim.NewRand(7), fault.Config{FailAt: 5 * time.Millisecond})
	dev := r.drv.Dev(0)

	var okN, failN int
	r.env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			err := dev.Write(p, int64(i*8), 1, fill(byte(i), 1))
			switch {
			case err == nil:
				okN++
			case errors.Is(err, blockdev.ErrDeviceFailed):
				failN++
			default:
				t.Errorf("write %d: unexpected error class: %v", i, err)
			}
		}
	})
	r.env.Run()

	if failN == 0 {
		t.Fatalf("no writes failed after device death (ok=%d)", okN)
	}
	st := r.drv.Stats()
	if st.LogDiskFailures != 1 {
		t.Errorf("LogDiskFailures = %d, want 1", st.LogDiskFailures)
	}
	if int(st.FailedWrites) != failN {
		t.Errorf("FailedWrites = %d, client saw %d errors", st.FailedWrites, failN)
	}
	// The driver is failed: a fresh write errors immediately.
	r.env.Go("late", func(p *sim.Proc) {
		if err := dev.Write(p, 4000, 1, fill(1, 1)); !errors.Is(err, blockdev.ErrDeviceFailed) {
			t.Errorf("post-failure write: %v", err)
		}
	})
	r.env.Run()
}

// TestFaultyLogCrashRecovery is the ack-safety property under faults: with
// latent write errors and timeouts injected into the log disk, a crash mid
// workload must never lose an acknowledged write — retried records must have
// landed intact somewhere recovery can find them.
func TestFaultyLogCrashRecovery(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			runFaultyCrashTrial(t, uint64(trial))
		})
	}
}

func runFaultyCrashTrial(t *testing.T, seed uint64) {
	const (
		slots      = 6
		sectorsPer = 3
	)
	env := sim.NewEnv()
	log := disk.New(env, testLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	fault.Attach(log, sim.NewRand(seed*101+5), fault.Config{
		LatentWriteErrors: 120,
		Timeouts:          3,
		TimeoutWindow:     60,
		TimeoutDelay:      2 * time.Millisecond,
	})
	data := disk.New(env, testDataParams("d"))
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)

	acked := make([]int, slots)
	rng := sim.NewRand(seed + 77)
	for s := 0; s < slots; s++ {
		s := s
		gap := time.Duration(rng.IntRange(0, 3000)) * time.Microsecond
		env.Go(fmt.Sprintf("slot-%d", s), func(p *sim.Proc) {
			for v := 1; ; v++ {
				if err := dev.Write(p, int64(s*64), sectorsPer, crashexplore.Payload(s, v, sectorsPer)); err != nil {
					return // exhausted retries or driver failed; not acknowledged
				}
				acked[s] = v
				p.Sleep(gap)
			}
		})
	}
	cut := time.Duration(8+rng.IntRange(0, 100)) * time.Millisecond
	env.RunUntil(sim.Time(cut))
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	log.Reattach(env2)
	data.Reattach(env2)
	id := blockdev.DevID{Major: 8, Minor: 0}
	devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.LOOK)}
	var rerr error
	env2.Go("recover", func(p *sim.Proc) {
		_, rerr = RecoverLogs(p, []*disk.Disk{log}, devs, RecoverOptions{})
	})
	env2.Run()
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}

	for s := 0; s < slots; s++ {
		got := data.MediaRead(int64(s*64), sectorsPer)
		v, consistent := crashexplore.ParseVersion(got, s, sectorsPer)
		if !consistent {
			t.Errorf("seed %d slot %d: torn/mixed payload", seed, s)
			continue
		}
		if v < acked[s] {
			t.Errorf("seed %d slot %d: acknowledged version %d lost (found %d)", seed, s, acked[s], v)
		}
	}
}

// TestRecoverySkipsUnreadableSectors damages the log disk *after* the crash
// (latent read errors, as if sectors decayed while the machine was down) and
// checks recovery completes by salvaging around them instead of aborting.
func TestRecoverySkipsUnreadableSectors(t *testing.T) {
	env := sim.NewEnv()
	log := disk.New(env, testLogParams())
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
		for i := 0; ; i++ {
			if err := dev.Write(p, int64((i%20)*8), 2, fill(byte(i), 2)); err != nil {
				return
			}
			p.Sleep(200 * time.Microsecond)
		}
	})
	env.RunUntil(sim.Time(40 * time.Millisecond))
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	log.Reattach(env2)
	data.Reattach(env2)
	// Sector decay discovered at reboot: plenty of latent read errors.
	fault.Attach(log, sim.NewRand(9), fault.Config{LatentReadErrors: 200})
	id := blockdev.DevID{Major: 8, Minor: 0}
	devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.LOOK)}
	var rep *RecoverReport
	var rerr error
	env2.Go("recover", func(p *sim.Proc) {
		rep, rerr = RecoverLogs(p, []*disk.Disk{log}, devs, RecoverOptions{})
	})
	env2.Run()
	if rerr != nil {
		t.Fatalf("recover with damaged log: %v", rerr)
	}
	if rep.Clean {
		t.Fatal("recovery reported clean after a crash")
	}
	if rep.MediaErrorSectors == 0 {
		t.Error("salvage path never exercised: 0 media-error sectors skipped")
	}
}

// TestDoubleCrashRecoveryConverges is the double-crash property: a second
// power cut DURING recovery's replay phase must leave the system recoverable
// — the log is intact (recovery only reads it), so a second, uninterrupted
// recovery converges and no acknowledged write is lost.
func TestDoubleCrashRecoveryConverges(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			runDoubleCrashTrial(t, uint64(trial))
		})
	}
}

func runDoubleCrashTrial(t *testing.T, seed uint64) {
	const (
		slots      = 8
		sectorsPer = 4
	)
	env := sim.NewEnv()
	log := disk.New(env, testLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	data := disk.New(env, testDataParams("d"))
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := drv.Dev(0)

	acked := make([]int, slots)
	rng := sim.NewRand(seed * 13)
	for s := 0; s < slots; s++ {
		s := s
		gap := time.Duration(rng.IntRange(0, 2000)) * time.Microsecond
		env.Go(fmt.Sprintf("slot-%d", s), func(p *sim.Proc) {
			for v := 1; ; v++ {
				if err := dev.Write(p, int64(s*64), sectorsPer, crashexplore.Payload(s, v, sectorsPer)); err != nil {
					return
				}
				acked[s] = v
				p.Sleep(gap)
			}
		})
	}
	// First crash, mid workload.
	env.RunUntil(sim.Time(time.Duration(10+rng.IntRange(0, 60)) * time.Millisecond))
	env.Close()

	// First recovery attempt — cut short by a second power failure at a
	// trial-dependent instant (possibly mid write-back replay).
	env2 := sim.NewEnv()
	log.Reattach(env2)
	data.Reattach(env2)
	id := blockdev.DevID{Major: 8, Minor: 0}
	env2.Go("recover-1", func(p *sim.Proc) {
		devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.LOOK)}
		_, _ = RecoverLogs(p, []*disk.Disk{log}, devs, RecoverOptions{})
	})
	env2.RunUntil(sim.Time(time.Duration(rng.IntRange(1, 40)) * time.Millisecond))
	env2.Close()

	// Second recovery runs to completion.
	env3 := sim.NewEnv()
	defer env3.Close()
	log.Reattach(env3)
	data.Reattach(env3)
	var rerr error
	env3.Go("recover-2", func(p *sim.Proc) {
		devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env3, data, id, sched.LOOK)}
		_, rerr = RecoverLogs(p, []*disk.Disk{log}, devs, RecoverOptions{})
	})
	env3.Run()
	if rerr != nil {
		t.Fatalf("second recovery: %v", rerr)
	}

	// Convergence: every slot holds a consistent version no older than its
	// last acknowledged one, and the system restarts.
	for s := 0; s < slots; s++ {
		got := data.MediaRead(int64(s*64), sectorsPer)
		v, consistent := crashexplore.ParseVersion(got, s, sectorsPer)
		if !consistent {
			t.Errorf("seed %d slot %d: torn/mixed payload after double crash", seed, s)
			continue
		}
		if v < acked[s] {
			t.Errorf("seed %d slot %d: acknowledged version %d lost (found %d)", seed, s, acked[s], v)
		}
	}
	drv2, err := NewDriver(env3, log, []*disk.Disk{data}, Config{})
	if err != nil {
		t.Fatalf("restart after double crash: %v", err)
	}
	env3.Go("post", func(p *sim.Proc) {
		if err := drv2.Dev(0).Write(p, 4096, 1, fill(1, 1)); err != nil {
			t.Errorf("post-recovery write: %v", err)
		}
	})
	env3.Run()
}

// TestDataDiskReadRetry checks the data-disk read path retries transient
// faults.
func TestDataDiskReadRetry(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	// Faults on the DATA disk only; reads go through the scheduler.
	fault.Attach(r.data[0], sim.NewRand(3), fault.Config{
		Timeouts:      2,
		TimeoutWindow: 4,
	})
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		// Uncached reads (nothing staged at these LBAs) hit the disk.
		for i := 0; i < 6; i++ {
			if _, err := dev.Read(p, int64(2000+i*8), 2); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
	})
	r.env.Run()
	if r.drv.Stats().ReadRetries == 0 {
		t.Error("no read retries recorded despite injected timeouts")
	}
}
