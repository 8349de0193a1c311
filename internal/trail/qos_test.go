package trail

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
)

func TestQoSShedsBackgroundAtClassBound(t *testing.T) {
	// MaxQueue 4: background writes shed once one request is queued.
	r := newRig(t, 1, Config{QoS: &qos.Policy{MaxQueue: 4}})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	// Occupy the log writer, then let two normal writes queue behind it.
	r.env.Go("w0", func(p *sim.Proc) {
		if err := dev.Write(p, 0, 4, fill(0, 4)); err != nil {
			t.Errorf("w0: %v", err)
		}
	})
	for i := 1; i <= 2; i++ {
		i := i
		r.env.Go("w", func(p *sim.Proc) {
			p.Sleep(50 * time.Microsecond)
			if err := dev.Write(p, int64(i*100), 4, fill(byte(i), 4)); err != nil {
				t.Errorf("w%d: %v", i, err)
			}
		})
	}
	var bgErr error
	r.env.Go("bg", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		bgErr = dev.WriteOpts(p, 900, 4, fill(9, 4),
			blockdev.Options{Class: blockdev.ClassBackground})
	})
	r.env.Run()
	if !errors.Is(bgErr, blockdev.ErrOverload) {
		t.Errorf("background write = %v, want ErrOverload", bgErr)
	}
	st := r.drv.Stats()
	if st.ShedWrites != 1 {
		t.Errorf("ShedWrites = %d, want 1", st.ShedWrites)
	}
	if st.MaxLogQueue < 2 {
		t.Errorf("MaxLogQueue = %d, want >= 2", st.MaxLogQueue)
	}
}

func TestQoSThrottlesAgainstWritebackProgress(t *testing.T) {
	// High water at 2 sectors of staging: the second write must stall until
	// write-back progress drains the buffer below one sector, then complete
	// successfully.
	r := newRig(t, 1, Config{QoS: &qos.Policy{HighWater: 2 * geom.SectorSize}})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 0, 4, fill(1, 4)); err != nil {
			t.Errorf("first write: %v", err)
		}
		// Staging now holds 4 sectors >= high water.
		if err := dev.Write(p, 100, 4, fill(2, 4)); err != nil {
			t.Errorf("throttled write: %v", err)
		}
	})
	r.env.Run()
	st := r.drv.Stats()
	if st.ThrottleStalls != 1 {
		t.Errorf("ThrottleStalls = %d, want 1", st.ThrottleStalls)
	}
	if st.ThrottleTime <= 0 {
		t.Error("no throttle time accumulated")
	}
	if st.FailedWrites != 0 || st.DeadlineExceeded != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQoSWriteDeadlineExpiresInQueue(t *testing.T) {
	r := newRig(t, 1, Config{QoS: &qos.Policy{MaxQueue: 64}})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("w0", func(p *sim.Proc) {
		if err := dev.Write(p, 0, 4, fill(0, 4)); err != nil {
			t.Errorf("w0: %v", err)
		}
	})
	var lateErr error
	r.env.Go("late", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond)
		// Deadline far shorter than the log writer's in-progress record:
		// the queued write must expire in takeBatch, never reaching media.
		lateErr = dev.WriteOpts(p, 500, 4, fill(5, 4),
			blockdev.Options{Deadline: p.Now().Add(100 * time.Microsecond)})
	})
	r.env.Run()
	if !errors.Is(lateErr, blockdev.ErrDeadlineExceeded) {
		t.Errorf("late write = %v, want ErrDeadlineExceeded", lateErr)
	}
	if st := r.drv.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestQoSRejectsAlreadyExpired(t *testing.T) {
	r := newRig(t, 1, Config{QoS: &qos.Policy{}})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		err := dev.WriteOpts(p, 0, 1, fill(1, 1),
			blockdev.Options{Deadline: p.Now().Add(-time.Microsecond)})
		if !errors.Is(err, blockdev.ErrDeadlineExceeded) {
			t.Errorf("expired write = %v, want ErrDeadlineExceeded", err)
		}
		_, rerr := dev.ReadOpts(p, 0, 1,
			blockdev.Options{Deadline: p.Now().Add(-time.Microsecond)})
		if !errors.Is(rerr, blockdev.ErrDeadlineExceeded) {
			t.Errorf("expired read = %v, want ErrDeadlineExceeded", rerr)
		}
	})
	r.env.Run()
}

func TestQoSNilPolicyUnchangedStats(t *testing.T) {
	// With QoS nil, none of the overload counters may move.
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := dev.Write(p, int64(i*8), 4, fill(byte(i), 4)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	r.env.Run()
	st := r.drv.Stats()
	if st.ShedWrites != 0 || st.DeadlineExceeded != 0 || st.ThrottleStalls != 0 {
		t.Errorf("QoS counters moved without a policy: %+v", st)
	}
}

// writeTimeouts times out every write command and counts them; reads, and
// with them the driver's reference reads, succeed.
type writeTimeouts struct{ n int64 }

func (f *writeTimeouts) CommandFault(_ sim.Time, write bool, _ int64, _ int) disk.CommandFault {
	if !write {
		return disk.CommandFault{}
	}
	f.n++
	return disk.CommandFault{Err: blockdev.ErrTimeout, Delay: time.Millisecond}
}
func (f *writeTimeouts) SectorFault(sim.Time, bool, int64) error { return nil }
func (f *writeTimeouts) SectorWritten(int64)                     {}
func (f *writeTimeouts) Clone() disk.Injector                    { c := *f; return &c }

// A log write's per-class retry budget counts attempts, as a read's and a
// baseline device's do: with every log-disk write timing out, a write fails
// after exactly its class's budget of attempts under qos.Default, and after
// maxWriteRetries+1 without QoS.
func TestQoSWriteRetryBudgetCountsAttempts(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pol      *qos.Policy
		class    blockdev.Class
		attempts int64
	}{
		{"background", qos.Default(), blockdev.ClassBackground, 2},
		{"normal", qos.Default(), blockdev.ClassNormal, 3},
		{"interactive", qos.Default(), blockdev.ClassInteractive, 5},
		{"no-qos", nil, blockdev.ClassNormal, maxWriteRetries + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 1, Config{QoS: tc.pol})
			defer r.env.Close()
			faults := &writeTimeouts{}
			r.log.SetInjector(faults)
			var err error
			r.env.Go("client", func(p *sim.Proc) {
				err = r.drv.Dev(0).WriteOpts(p, 0, 4, fill(1, 4), blockdev.Options{Class: tc.class})
			})
			r.env.Run()
			if want := fmt.Sprintf("after %d attempts", tc.attempts); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("write = %v, want an error %q", err, want)
			}
			st := r.drv.Stats()
			if faults.n != tc.attempts || st.LogWriteRetries != tc.attempts || st.FailedWrites != 1 {
				t.Errorf("%d log writes timed out (%d counted), %d writes failed; want %d attempts and 1 failure",
					faults.n, st.LogWriteRetries, st.FailedWrites, tc.attempts)
			}
		})
	}
}
