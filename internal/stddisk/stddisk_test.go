package stddisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

func newDev(env *sim.Env) (*Device, *disk.Disk) {
	d := disk.New(env, disk.Params{
		Name:            "base",
		RPM:             6000,
		Geom:            geom.Uniform(200, 2, 50),
		SeekT2T:         time.Millisecond,
		SeekAvg:         6 * time.Millisecond,
		SeekMax:         12 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	return New(env, d, blockdev.DevID{Major: 3, Minor: 0}, sched.LOOK), d
}

func TestWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, _ := newDev(env)
	data := bytes.Repeat([]byte{0xCD}, 4*geom.SectorSize)
	var got []byte
	env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 100, 4, data); err != nil {
			t.Errorf("write: %v", err)
		}
		var err error
		got, err = dev.Read(p, 100, 4)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	env.Run()
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestRangeChecks(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, _ := newDev(env)
	env.Go("client", func(p *sim.Proc) {
		if _, err := dev.Read(p, dev.Sectors(), 1); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Errorf("read past end: %v", err)
		}
		if err := dev.Write(p, -1, 1, make([]byte, geom.SectorSize)); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Errorf("negative write: %v", err)
		}
		if _, err := dev.Read(p, 0, 0); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Errorf("zero-count read: %v", err)
		}
	})
	env.Run()
}

func TestSyncWritePaysMechanicalCost(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, d := newDev(env)
	var lat time.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		// Random-ish far target: should cost seek + rotation, i.e. several ms.
		if err := dev.Write(p, 9000, 2, make([]byte, 2*geom.SectorSize)); err != nil {
			t.Errorf("write: %v", err)
		}
		lat = p.Now().Sub(start)
	})
	env.Run()
	if lat < 2*time.Millisecond {
		t.Errorf("baseline sync write latency %v suspiciously low", lat)
	}
	if d.Stats().Writes != 1 {
		t.Error("write did not reach the disk")
	}
}

func TestID(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, _ := newDev(env)
	if dev.ID() != (blockdev.DevID{Major: 3, Minor: 0}) {
		t.Errorf("ID = %v", dev.ID())
	}
}

// A transient timeout is retried and counted in Retries, a media error
// surfaces at once and is counted in Failures, and the device's registry
// series read the same counters.
func TestRetryAndFailureCounters(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, d := newDev(env)
	// The first command times out; sector 0 holds a latent read error.
	fault.Attach(d, sim.NewRand(1), fault.Config{Timeouts: 1, TimeoutWindow: 1, LatentReadErrors: 1, MaxLBA: 1})
	reg := telemetry.NewRegistry()
	dev.RegisterMetrics(reg, "disk0")
	env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 100, 2, make([]byte, 2*geom.SectorSize)); err != nil {
			t.Errorf("write through one timeout: %v", err)
		}
		if _, err := dev.Read(p, 0, 1); !errors.Is(err, blockdev.ErrMediaError) {
			t.Errorf("read of the latent sector: %v, want a media error", err)
		}
	})
	env.Run()

	if got := dev.Stats(); got != (Stats{Retries: 1, Failures: 1}) {
		t.Errorf("Stats() = %+v, want one retry and one failure", got)
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	vals, err := telemetry.ParseProm(&prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stddisk_retries_total", "stddisk_failures_total"} {
		key := telemetry.Prefix + name + `{disk="disk0"}`
		if got, ok := vals[key]; !ok || got != 1 {
			t.Errorf("%s = %v (exported %v), want 1", key, got, ok)
		}
	}
}

// TestSteadyStateAllocations pins what a command allocates once the device
// has served one: a write nothing, a read the buffer it returns, and a read
// into the caller's buffer nothing. The scheduler request is recycled.
func TestSteadyStateAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, _ := newDev(env)
	data := make([]byte, 2*geom.SectorSize)
	into := make([]byte, len(data))
	env.Go("client", func(p *sim.Proc) {
		measure := func(what string, want float64, fn func() error) {
			got := testing.AllocsPerRun(100, func() {
				if err := fn(); err != nil {
					t.Error(err)
				}
			})
			if got > want {
				t.Errorf("%s: %v allocations, want at most %v", what, got, want)
			}
		}
		measure("write", 0, func() error { return dev.Write(p, 100, 2, data) })
		measure("read", 1, func() error {
			_, err := dev.Read(p, 100, 2)
			return err
		})
		measure("read into a buffer", 0, func() error {
			_, err := dev.ReadOpts(p, 100, 2, blockdev.Options{Into: into})
			return err
		})
	})
	env.Run()
}
