package raid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// pattern fills count sectors with a deterministic byte stream derived from
// the logical LBA, so any slice of the array can be checked independently.
func pattern(lba int64, count int) []byte {
	buf := make([]byte, count*geom.SectorSize)
	for s := 0; s < count; s++ {
		b := byte((lba+int64(s))*37 + 11)
		for i := 0; i < geom.SectorSize; i++ {
			buf[s*geom.SectorSize+i] = b ^ byte(i)
		}
	}
	return buf
}

// TestAutoFailOnDeviceDeath kills one device mid workload (via an injected
// whole-device failure) while concurrent readers and writers hammer the
// array, and checks the array degrades transparently: every operation keeps
// succeeding and every read returns correct data.
func TestAutoFailOnDeviceDeath(t *testing.T) {
	env, a, raw := newArray(t, 4)
	defer env.Close()
	fault.Attach(raw[1], sim.NewRand(21), fault.Config{FailAt: 30 * time.Millisecond})

	const extent = 4
	nSlots := int(a.Sectors() / extent)
	if nSlots > 40 {
		nSlots = 40
	}
	written := make([]bool, nSlots)
	for w := 0; w < 3; w++ {
		w := w
		env.Go(fmt.Sprintf("writer-%d", w), func(p *sim.Proc) {
			for i := w; i < nSlots; i += 3 {
				lba := int64(i * extent)
				if err := a.Write(p, lba, extent, pattern(lba, extent)); err != nil {
					t.Errorf("write slot %d: %v", i, err)
					return
				}
				written[i] = true
				p.Sleep(time.Millisecond)
			}
		})
	}
	env.Go("reader", func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			for i := 0; i < nSlots; i++ {
				if !written[i] {
					continue
				}
				lba := int64(i * extent)
				got, err := a.Read(p, lba, extent)
				if err != nil {
					t.Errorf("read slot %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, pattern(lba, extent)) {
					t.Errorf("slot %d: wrong data", i)
					return
				}
			}
			p.Sleep(5 * time.Millisecond)
		}
	})
	env.Run()

	if a.Failed() != 1 {
		t.Errorf("device 1 not auto-failed (failed=%d)", a.Failed())
	}
	st := a.Stats()
	if st.DeviceFailures != 1 {
		t.Errorf("DeviceFailures = %d, want 1", st.DeviceFailures)
	}
	if st.Reconstructions == 0 {
		t.Error("no reconstructions despite degraded operation")
	}

	// Full audit after the dust settles: every written slot intact.
	env.Go("audit", func(p *sim.Proc) {
		for i := 0; i < nSlots; i++ {
			if !written[i] {
				continue
			}
			lba := int64(i * extent)
			got, err := a.Read(p, lba, extent)
			if err != nil || !bytes.Equal(got, pattern(lba, extent)) {
				t.Errorf("audit slot %d: err=%v", i, err)
			}
		}
	})
	env.Run()
}

// TestSecondDeviceDeathRejected checks a second whole-device failure
// surfaces ErrDegradedTwice instead of silently returning wrong data.
func TestSecondDeviceDeathRejected(t *testing.T) {
	env, a, raw := newArray(t, 4)
	defer env.Close()
	rng := sim.NewRand(5)
	// Deaths land well after the initial write completes (a 16-sector small
	// write costs several tens of simulated milliseconds of RMW I/O).
	fault.Attach(raw[0], rng, fault.Config{FailAt: 500 * time.Millisecond})
	fault.Attach(raw[2], rng, fault.Config{FailAt: 520 * time.Millisecond})

	run(env, func(p *sim.Proc) {
		if err := a.Write(p, 0, 16, pattern(0, 16)); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		p.Sleep(600 * time.Millisecond) // both devices now dead
		_, err := a.Read(p, 0, 16)
		if !errors.Is(err, ErrDegradedTwice) && !errors.Is(err, blockdev.ErrDeviceFailed) {
			t.Errorf("double-failure read: %v", err)
		}
	})
}

// TestWriteMediaErrorCoveredByParity injects latent *write* errors and
// checks the array hides them: the unwritable sectors go on the bad list,
// reads reconstruct their contents from parity, and the data round-trips.
func TestWriteMediaErrorCoveredByParity(t *testing.T) {
	env, a, raw := newArray(t, 4)
	defer env.Close()
	// Dense write-latents on one device so a workload surely hits several.
	plan := fault.Attach(raw[2], sim.NewRand(33), fault.Config{
		LatentWriteErrors: 60,
		MaxLBA:            200, // the workload's working set on the device
	})
	const count = 96
	run(env, func(p *sim.Proc) {
		if err := a.Write(p, 0, count, pattern(0, count)); err != nil {
			t.Errorf("write over bad sectors: %v", err)
			return
		}
		got, err := a.Read(p, 0, count)
		if err != nil {
			t.Errorf("read back: %v", err)
			return
		}
		if !bytes.Equal(got, pattern(0, count)) {
			t.Error("data corrupted by unwritable sectors")
		}
	})
	if t.Failed() {
		return
	}
	if plan.Stats().MediaErrors == 0 {
		t.Skip("workload missed every latent (seed layout); widen MaxLBA")
	}
	if a.BadSectors() == 0 {
		t.Error("media errors hit but no sectors on the bad list")
	}
	if a.Stats().MediaErrorWrites == 0 {
		t.Error("MediaErrorWrites not counted")
	}
}
