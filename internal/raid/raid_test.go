package raid

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

// newArray builds a RAID-5 over n fast simulated disks.
func newArray(t *testing.T, n int) (*sim.Env, *Array, []*disk.Disk) {
	t.Helper()
	env := sim.NewEnv()
	var devs []blockdev.Device
	var raw []*disk.Disk
	for i := 0; i < n; i++ {
		d := disk.New(env, disk.Params{
			Name:            "r",
			RPM:             7200,
			Geom:            geom.Uniform(200, 2, 64),
			SeekT2T:         time.Millisecond,
			SeekAvg:         5 * time.Millisecond,
			SeekMax:         10 * time.Millisecond,
			HeadSwitch:      500 * time.Microsecond,
			ReadOverhead:    200 * time.Microsecond,
			WriteOverhead:   400 * time.Microsecond,
			WriteSettle:     100 * time.Microsecond,
			WriteTurnaround: time.Millisecond,
		})
		raw = append(raw, d)
		devs = append(devs, stddisk.New(env, d, blockdev.DevID{Major: 9, Minor: uint8(i)}, sched.LOOK))
	}
	a, err := New(devs)
	if err != nil {
		t.Fatal(err)
	}
	return env, a, raw
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("t", fn)
	env.Run()
}

func TestBadConfigs(t *testing.T) {
	env, _, _ := newArray(t, 3)
	defer env.Close()
	if _, err := New(nil); !errors.Is(err, ErrBadArray) {
		t.Error("empty array accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	want := make([]byte, 40*geom.SectorSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	run(env, func(p *sim.Proc) {
		if err := a.Write(p, 13, 40, want); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(p, 13, 40)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("round trip mismatch")
		}
	})
}

func TestFullStripeAvoidsReads(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	stripe := 8 * 3 // chunk * (n-1) logical sectors
	run(env, func(p *sim.Proc) {
		before := a.Stats()
		if err := a.Write(p, 0, stripe, make([]byte, stripe*geom.SectorSize)); err != nil {
			t.Fatal(err)
		}
		after := a.Stats()
		if after.FullStripes-before.FullStripes != 1 {
			t.Errorf("full stripes = %d", after.FullStripes-before.FullStripes)
		}
		if after.DeviceReads != before.DeviceReads {
			t.Error("full-stripe write issued reads")
		}
		if after.DeviceWrites-before.DeviceWrites != 4 {
			t.Errorf("device writes = %d, want 4 (3 data + parity)", after.DeviceWrites-before.DeviceWrites)
		}
	})
}

func TestSmallWriteCostsFourIOs(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		before := a.Stats()
		if err := a.Write(p, 2, 1, make([]byte, geom.SectorSize)); err != nil {
			t.Fatal(err)
		}
		after := a.Stats()
		if r := after.DeviceReads - before.DeviceReads; r != 2 {
			t.Errorf("reads = %d, want 2 (old data + old parity)", r)
		}
		if w := after.DeviceWrites - before.DeviceWrites; w != 2 {
			t.Errorf("writes = %d, want 2 (data + parity)", w)
		}
		if after.SmallWrites-before.SmallWrites != 1 {
			t.Error("small write not counted")
		}
	})
}

func TestDegradedReadReconstructs(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	want := make([]byte, 30*geom.SectorSize)
	for i := range want {
		want[i] = byte(i * 13)
	}
	run(env, func(p *sim.Proc) {
		if err := a.Write(p, 0, 30, want); err != nil {
			t.Fatal(err)
		}
		// Kill each device in turn (only one at a time) and verify every
		// byte survives via reconstruction.
		for dev := 0; dev < 4; dev++ {
			a.failed = -1
			if err := a.Fail(dev); err != nil {
				t.Fatal(err)
			}
			got, err := a.Read(p, 0, 30)
			if err != nil {
				t.Fatalf("degraded read with dev %d down: %v", dev, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("data lost with device %d failed", dev)
			}
		}
		if a.Stats().Reconstructions == 0 {
			t.Error("no reconstructions recorded")
		}
	})
}

func TestWritesWhileDegradedSurviveRepair(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		if err := a.Fail(2); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0x61}, 24*geom.SectorSize)
		if err := a.Write(p, 0, 24, want); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(p, 0, 24)
		if err != nil || !bytes.Equal(got, want) {
			t.Error("degraded write not readable")
		}
	})
}

func TestDoubleFailureRejected(t *testing.T) {
	env, a, _ := newArray(t, 4)
	defer env.Close()
	if err := a.Fail(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Fail(2); !errors.Is(err, ErrDegradedTwice) {
		t.Errorf("double failure: %v", err)
	}
}

func TestParityInvariantProperty(t *testing.T) {
	// After arbitrary writes, every stripe's XOR across all devices is
	// zero (parity invariant) — checked directly on the media.
	env, a, raw := newArray(t, 4)
	defer env.Close()
	rng := sim.NewRand(4)
	run(env, func(p *sim.Proc) {
		f := func(rawLBA uint16, rawLen uint8) bool {
			lba := int64(rawLBA) % (a.Sectors() - 16)
			count := int(rawLen)%16 + 1
			data := make([]byte, count*geom.SectorSize)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			return a.Write(p, lba, count, data) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
	// Verify the invariant on the raw media.
	perDev := raw[0].Geom().TotalSectors()
	for s := int64(0); s < perDev; s++ {
		x := make([]byte, geom.SectorSize)
		any := false
		for _, d := range raw {
			buf := d.MediaRead(s, 1)
			for i := range x {
				x[i] ^= buf[i]
			}
			for _, b := range buf {
				if b != 0 {
					any = true
				}
			}
		}
		if !any {
			continue
		}
		for _, b := range x {
			if b != 0 {
				t.Fatalf("parity invariant broken at device sector %d", s)
			}
		}
	}
}

func TestRangeChecks(t *testing.T) {
	env, a, _ := newArray(t, 3)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		if _, err := a.Read(p, a.Sectors(), 1); err == nil {
			t.Error("read past end accepted")
		}
		if err := a.Write(p, -1, 1, make([]byte, geom.SectorSize)); err == nil {
			t.Error("negative write accepted")
		}
	})
}
