package rig

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/raid"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
	"tracklog/internal/trail"
)

// Small drives keep recovery's track scan short.
func smallLog() *disk.Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew, g.CylSkew = 4, 8
	return &disk.Params{
		Name: "log", RPM: 6000, Geom: g,
		SeekT2T: 800 * time.Microsecond, SeekAvg: 4 * time.Millisecond, SeekMax: 8 * time.Millisecond,
		HeadSwitch: 400 * time.Microsecond, ReadOverhead: 200 * time.Microsecond,
		WriteOverhead: 500 * time.Microsecond, WriteSettle: 100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

func smallData() *disk.Params {
	p := *smallLog()
	p.Name, p.Geom = "data", geom.Uniform(100, 2, 60)
	return &p
}

func block(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4*geom.SectorSize) }

// Every acknowledged block survives write -> Crash -> Recover on a Trail rig
// with one and two log disks and on a baseline rig, the rebooted rig is of
// the same kind and configuration as the one that crashed, and it accepts
// new writes and reads them back: on every device, and through a RAID-5
// array assembled over a rebooted baseline rig's devices.
func TestCrashRecoverReadBack(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		disks int
		raid5 bool
	}{
		{"trail-1log", Config{}, 2, false},
		{"trail-2log", Config{LogDisks: 2, Trail: trail.Config{MaxBatchSectors: 1}}, 2, false},
		{"baseline", Config{Baseline: sched.LOOK}, 2, false},
		{"baseline-raid5", Config{Baseline: sched.LOOK}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.DataDisks, cfg.LogDisk, cfg.DataDisk = tc.disks, smallLog(), smallData()
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const writes = 16
			acked := 0
			r.Go("client", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					if err := r.Dev(i%2).Write(p, int64(i)*64, 4, block(i)); err != nil {
						t.Errorf("write %d: %v", i, err)
						return
					}
					acked++
				}
			})
			// Cut right after the last ack: on Trail, write-back is behind.
			for i := 0; i < 10000 && acked < writes; i++ {
				r.RunUntil(r.Env.Now().Add(100 * time.Microsecond))
			}
			if acked != writes {
				t.Fatalf("%d of %d writes acknowledged", acked, writes)
			}
			r.Crash()
			n, rep, err := r.Recover(trail.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if trailRig := cfg.Baseline == 0; trailRig != (rep != nil) || trailRig != (n.Trail != nil) || len(n.Std) != len(r.Std) {
				t.Fatalf("rebooted rig: report %v, driver %v, %d baseline devices", rep, n.Trail, len(n.Std))
			}
			if n.Trail != nil && n.Trail.NumLogDisks() != len(r.LogDisks) {
				t.Errorf("rebooted driver has %d log disks, want %d", n.Trail.NumLogDisks(), len(r.LogDisks))
			}
			type rw interface {
				Read(p *sim.Proc, lba int64, count int) ([]byte, error)
				Write(p *sim.Proc, lba int64, count int, data []byte) error
			}
			var devs []rw
			for _, d := range n.Devs() {
				devs = append(devs, d)
			}
			if tc.raid5 {
				arr, err := raid.New(n.Devs(), 8)
				if err != nil {
					t.Fatal(err)
				}
				devs = []rw{arr}
			}
			n.Go("reader", func(p *sim.Proc) {
				for i := 0; i < writes; i++ {
					got, err := n.Dev(i%2).Read(p, int64(i)*64, 4)
					if err != nil || !bytes.Equal(got, block(i)) {
						t.Errorf("block %d lost across the cut (err %v)", i, err)
					}
				}
				for i, d := range devs {
					lba, want := int64(writes+i)*64, block(writes+i)
					if err := d.Write(p, lba, 4, want); err != nil {
						t.Errorf("device %d: write after reboot: %v", i, err)
						continue
					}
					if got, err := d.Read(p, lba, 4); err != nil || !bytes.Equal(got, want) {
						t.Errorf("device %d: block written after reboot read back wrong (err %v)", i, err)
					}
				}
			})
			n.Run()
		})
	}
}

// The same scenario and seed sample the same plans as the hand-attached sites
// did before the rig owned fault attachment (cmd/trailsim's buildDevice and
// experiments.FaultTolerance's trail system): a log disk first, then the data
// disk, from one stream.
func TestFaultPlansMatchHandAttachedOrder(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		maxLBA   int64
		seed     uint64
	}{
		{"latent=3,timeout=1", 0, 5},
		{"wlatent=2,latent=4,timeout=2", 4096, 9},
	} {
		fcfg, err := fault.ParseScenario(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		fcfg.MaxLBA = tc.maxLBA
		r, err := New(Config{Faults: &fcfg, FaultSeed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		env := sim.NewEnv()
		rng := sim.NewRand(tc.seed)
		want := []*fault.Plan{
			fault.Attach(disk.New(env, disk.ST41601N()), rng, fcfg),
			fault.Attach(disk.New(env, disk.WDCaviar()), rng, fcfg),
		}
		env.Close()
		if !reflect.DeepEqual(r.Plans, want) {
			t.Errorf("%s seed %d: the rig's plans differ from the hand-attached ones", tc.scenario, tc.seed)
		}
	}
}

// A rig rebooted on clones of its drives runs on the clones and reports
// their plans: recovery and the restarted system leave the crashed rig's
// drives and plans as they were at the cut.
func TestRecoverOnClones(t *testing.T) {
	fcfg, err := fault.ParseScenario("latent=2,timeout=2,twindow=40")
	if err != nil {
		t.Fatal(err)
	}
	fcfg.MaxLBA = 256
	r, err := New(Config{LogDisk: smallLog(), DataDisk: smallData(), Faults: &fcfg, FaultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.Go("client", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			r.Dev(0).Write(p, int64(i)*16, 4, block(i)) //nolint:errcheck // faults are the point
		}
	})
	r.RunUntil(sim.Time(40 * time.Millisecond))
	r.Crash()
	var clones []*disk.Disk
	var digests []uint64
	var stats []fault.Stats
	for _, d := range r.Drives() {
		clones = append(clones, d.Clone())
		digests = append(digests, d.Digest())
	}
	for _, pl := range r.Plans {
		stats = append(stats, pl.Stats())
	}
	n, _, err := r.RecoverOn(sim.NewEnv(), clones, trail.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i, d := range clones {
		if n.Drives()[i] != d {
			t.Errorf("drive %d: the rebooted rig does not run on the clone", i)
		}
		if n.Plans[i] != d.Injector() || n.Plans[i] == r.Plans[i] {
			t.Errorf("plan %d: the rebooted rig reports %p, want the clone's %p", i, n.Plans[i], d.Injector())
		}
	}
	for i, d := range r.Drives() {
		if d.Digest() != digests[i] || r.Plans[i].Stats() != stats[i] {
			t.Errorf("drive %d: recovering its clone changed it", i)
		}
	}
}

// The zero bundle attaches nothing and allocates nothing: the attach step is
// all that separates Start from a build with no attach call, and on a zero
// bundle it costs no allocation and leaves every handle nil. (Whole builds
// are not compared: each spawns goroutines, whose allocations vary by one or
// two between identical runs.) A full bundle, for contrast, reaches the
// kernel and every layer.
func TestZeroInstrumentsAttachNothing(t *testing.T) {
	for _, cfg := range []Config{{}, {Baseline: sched.LOOK}} {
		cfg.LogDisk, cfg.DataDisk = smallLog(), smallData()
		bare, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			bare.cfg.Instruments.AttachKernel(bare.Env)
			bare.Attach(bare.cfg.Instruments)
		}); n != 0 {
			t.Errorf("baseline=%v: attaching the zero bundle allocates %v objects", cfg.Baseline != 0, n)
		}
		if bare.Env.Tracer() != nil || (bare.Trail != nil && bare.Trail.Recorder() != nil) {
			t.Errorf("baseline=%v: the zero bundle attached a handle", cfg.Baseline != 0)
		}
		bare.Close()

		cfg.Instruments = Instruments{Tracer: trace.New(0), Recorder: span.NewRecorder(0),
			Timeline: timeline.New(time.Millisecond), Registry: telemetry.NewRegistry()}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Go("client", func(p *sim.Proc) {
			if err := r.Dev(0).Write(p, 0, 4, block(0)); err != nil {
				t.Error(err)
			}
		})
		r.Run()
		r.Close()
		in := cfg.Instruments
		if r.Env.Tracer() != in.Tracer || in.Tracer.Len() == 0 || len(in.Recorder.Requests()) == 0 || in.Registry.Len() == 0 {
			t.Errorf("baseline=%v: full bundle saw %d events, %d requests, %d series",
				cfg.Baseline != 0, in.Tracer.Len(), len(in.Recorder.Requests()), in.Registry.Len())
		}
	}
}

// A rig observed by the full bundle crashes and recovers without
// re-registering the crashed world's series and lanes: the registry exports
// after Recover what it exported at Crash, and the rebooted rig still
// records into the carried-over Tracer and Recorder.
func TestRecoverObservedRig(t *testing.T) {
	for _, cfg := range []Config{{}, {Baseline: sched.LOOK}} {
		cfg.LogDisk, cfg.DataDisk = smallLog(), smallData()
		cfg.Instruments = Instruments{Tracer: trace.New(0), Recorder: span.NewRecorder(0),
			Timeline: timeline.New(time.Millisecond), Registry: telemetry.NewRegistry()}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const writes = 20
		r.Go("client", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				if err := r.Dev(0).Write(p, int64(i)*64, 4, block(i)); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
		})
		r.Run()
		r.Crash()
		export := func() string {
			var b bytes.Buffer
			if err := cfg.Instruments.Registry.WriteProm(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		atCrash := export()
		n, _, err := r.Recover(trail.RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := export(); got != atCrash {
			t.Errorf("baseline=%v: registry export moved across Recover:\nat crash:\n%s\nafter:\n%s", cfg.Baseline != 0, atCrash, got)
		}
		if in := n.cfg.Instruments; in.Registry != nil || in.Timeline != nil || in.Tracer != cfg.Instruments.Tracer || in.Recorder != cfg.Instruments.Recorder {
			t.Errorf("baseline=%v: rebooted rig carries %+v", cfg.Baseline != 0, in)
		}
		events, requests := cfg.Instruments.Tracer.Len(), len(cfg.Instruments.Recorder.Requests())
		n.Go("reader", func(p *sim.Proc) {
			if _, err := n.Dev(0).Read(p, 0, 4); err != nil {
				t.Error(err)
			}
		})
		n.Run()
		n.Close()
		if cfg.Instruments.Tracer.Len() == events || len(cfg.Instruments.Recorder.Requests()) == requests {
			t.Errorf("baseline=%v: the rebooted rig's read reached neither the tracer nor the recorder", cfg.Baseline != 0)
		}
	}
}

// The two-phase build: data put on the drives through instant devices after
// Prepare (running the environment to do so) is what Dev(i) reads after Start.
func TestPopulateBeforeStart(t *testing.T) {
	for _, cfg := range []Config{{}, {Baseline: sched.LOOK}} {
		cfg.DataDisks, cfg.LogDisk, cfg.DataDisk = 2, smallLog(), smallData()
		r, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Trail != nil || r.Std != nil {
			t.Fatal("Prepare started the system")
		}
		r.Go("load", func(p *sim.Proc) {
			for i, d := range r.DataDisks {
				inst := disk.NewInstantDev(d, blockdev.DevID{Major: 3, Minor: uint8(i)})
				if err := inst.Write(p, 128, 4, block(i)); err != nil {
					t.Error(err)
				}
			}
		})
		r.Run()
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		r.Go("reader", func(p *sim.Proc) {
			for i := range r.DataDisks {
				got, err := r.Dev(i).Read(p, 128, 4)
				if err != nil || !bytes.Equal(got, block(i)) {
					t.Error(fmt.Errorf("baseline=%v disk %d: populated block not readable after Start (err %v)", cfg.Baseline != 0, i, err))
				}
			}
		})
		r.Run()
		r.Close()
	}
}

// A write whose data is shorter than its sector count is refused with
// blockdev.ErrShortBuffer by every device, not a panic in the caller or in
// a driver process, and the device serves the same write with full data.
func TestShortWriteBufferIsAnError(t *testing.T) {
	tr, err := New(Config{LogDisk: smallLog(), DataDisk: smallData()})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	std, err := New(Config{Baseline: sched.LOOK, DataDisks: 3, DataDisk: smallData()})
	if err != nil {
		t.Fatal(err)
	}
	defer std.Close()
	arr, err := raid.New(std.Devs(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    *Rig
		dev  interface {
			Write(p *sim.Proc, lba int64, count int, data []byte) error
		}
	}{
		{"stddisk", std, std.Dev(0)},
		{"trail", tr, tr.Dev(0)},
		{"instant", std, disk.NewInstantDev(std.DataDisks[0], blockdev.DevID{Major: 3})},
		{"raid", std, arr},
	} {
		tc.r.Go("writer", func(p *sim.Proc) {
			if err := tc.dev.Write(p, 16, 8, block(0)[:geom.SectorSize]); !errors.Is(err, blockdev.ErrShortBuffer) {
				t.Errorf("%s: write of 8 sectors with 512 bytes: %v, want ErrShortBuffer", tc.name, err)
			}
			if err := tc.dev.Write(p, 16, 8, bytes.Repeat(block(0), 2)); err != nil {
				t.Errorf("%s: write with full data: %v", tc.name, err)
			}
		})
		tc.r.Run()
	}
}
