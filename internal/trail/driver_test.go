package trail

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// testLogParams is disk.Small: 24 tracks (21 usable), 10 ms/rev, 60 SPT.
func testLogParams() disk.Params {
	p := disk.Small()
	p.Name = "testlog"
	return p
}

func testDataParams(name string) disk.Params {
	p := disk.Small()
	p.Name, p.Geom = name, geom.Uniform(100, 2, 60)
	return p
}

// rig is a complete Trail setup on a fresh environment.
type rig struct {
	env  *sim.Env
	log  *disk.Disk
	data []*disk.Disk
	drv  *Driver
}

func newRig(t *testing.T, nData int, cfg Config) *rig {
	t.Helper()
	env := sim.NewEnv()
	log := disk.New(env, testLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	var data []*disk.Disk
	for i := 0; i < nData; i++ {
		data = append(data, disk.New(env, testDataParams("data")))
	}
	drv, err := NewDriver(env, log, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, log: log, data: data, drv: drv}
}

func fill(b byte, sectors int) []byte {
	return bytes.Repeat([]byte{b}, sectors*geom.SectorSize)
}

func TestFormatAndReadHeader(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := disk.New(env, testLogParams())
	if Formatted(d) {
		t.Error("unformatted disk reported formatted")
	}
	if err := Format(d); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch != 0 || !h.CleanShutdown {
		t.Errorf("fresh header %+v", h)
	}
	// Corrupting the primary copy must fall back to a replica.
	d.MediaWrite(HeaderLBAs(d.Geom())[0], make([]byte, geom.SectorSize))
	if !Formatted(d) {
		t.Error("replica fallback failed")
	}
}

func TestNewDriverRequiresFormat(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, testLogParams())
	data := disk.New(env, testDataParams("d"))
	if _, err := NewDriver(env, log, []*disk.Disk{data}, Config{}); !errors.Is(err, ErrNotTrailDisk) {
		t.Errorf("unformatted disk: %v", err)
	}
}

func TestWriteReadBackFromStaging(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	want := fill(0xAA, 4)
	var got []byte
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 1000, 4, want); err != nil {
			t.Errorf("write: %v", err)
		}
		var err error
		got, err = dev.Read(p, 1000, 4)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	r.env.Run()
	if !bytes.Equal(got, want) {
		t.Error("read after write mismatch")
	}
	if r.drv.Stats().ReadsFromStaging == 0 {
		t.Error("immediate read-back did not hit the staging buffer")
	}
}

func TestWriteReachesDataDiskEventually(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	want := fill(0xBB, 2)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 500, 2, want); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.env.Run() // drains write-back
	if got := r.data[0].MediaRead(500, 2); !bytes.Equal(got, want) {
		t.Error("data never reached the data disk")
	}
	if r.drv.OutstandingRecords() != 0 {
		t.Errorf("outstanding records = %d after drain", r.drv.OutstandingRecords())
	}
	if r.drv.StagedBytes() != 0 {
		t.Errorf("staged bytes = %d after drain", r.drv.StagedBytes())
	}
}

func TestTrailWriteMuchFasterThanInPlace(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	var trailLat time.Duration
	r.env.Go("client", func(p *sim.Proc) {
		// Warm up the reference point with one write, then measure.
		dev.Write(p, 0, 2, fill(1, 2))
		p.Sleep(20 * time.Millisecond)
		start := p.Now()
		dev.Write(p, 11000, 2, fill(2, 2))
		trailLat = p.Now().Sub(start)
	})
	r.env.Run()
	// In-place on this drive: ~seek(avg 4ms) + rot(avg 5ms) >= 5ms.
	// Trail: overhead (0.6ms) + a couple sector times.
	if trailLat > 3*time.Millisecond {
		t.Errorf("trail sync write = %v, want << in-place cost", trailLat)
	}
}

func TestBatchingAggregatesConcurrentWrites(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	const writers = 10
	for i := 0; i < writers; i++ {
		lba := int64(100 * (i + 1))
		r.env.Go("w", func(p *sim.Proc) {
			if err := dev.Write(p, lba, 1, fill(byte(lba), 1)); err != nil {
				t.Errorf("write: %v", err)
			}
		})
	}
	r.env.Run()
	s := r.drv.Stats()
	if s.Writes != writers {
		t.Fatalf("writes = %d", s.Writes)
	}
	if s.Records >= writers {
		t.Errorf("records = %d for %d concurrent writes; batching inactive", s.Records, writers)
	}
	// All data still individually correct on the data disk.
	for i := 0; i < writers; i++ {
		lba := int64(100 * (i + 1))
		if got := r.data[0].MediaRead(lba, 1); got[0] != byte(lba) {
			t.Errorf("block %d corrupted", lba)
		}
	}
}

func TestDisableBatchingAblation(t *testing.T) {
	r := newRig(t, 1, Config{MaxBatchSectors: 1})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	const writers = 5
	for i := 0; i < writers; i++ {
		lba := int64(100 * (i + 1))
		r.env.Go("w", func(p *sim.Proc) { dev.Write(p, lba, 1, fill(1, 1)) })
	}
	r.env.Run()
	if s := r.drv.Stats(); s.Records != writers {
		t.Errorf("records = %d, want %d with one-sector batches", s.Records, writers)
	}
}

func TestTrackAdvanceAtUtilizationThreshold(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	// Each 16-sector write = 17 sectors on a 60-sector track = 28%; the
	// second write pushes past 30% and must trigger repositioning.
	r.env.Go("client", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			dev.Write(p, int64(i*100), 16, fill(byte(i), 16))
			p.Sleep(5 * time.Millisecond)
		}
	})
	r.env.Run()
	s := r.drv.Stats()
	if s.Repositions < 2 {
		t.Errorf("repositions = %d, want >= 2", s.Repositions)
	}
	if s.TrackUtilTracks == 0 || s.AvgTrackUtilization() < 0.30 {
		t.Errorf("avg track utilization = %v over %d tracks", s.AvgTrackUtilization(), s.TrackUtilTracks)
	}
}

func TestSupersedingWriteSkipsWriteBack(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		// Rapid rewrites of the same block: later versions supersede
		// earlier ones before write-back catches up. Each ends in another
		// zero tail, so a stale tail would show.
		for i := 0; i < len(zeroTails); i++ {
			dev.Write(p, 777, 1, tailed(byte(i+1), 1, len(zeroTails)-1-i))
		}
	})
	r.env.Run()
	if got := r.data[0].MediaRead(777, 1); !bytes.Equal(got, tailed(byte(len(zeroTails)), 1, 0)) {
		t.Errorf("final data %#x..., want the newest version", got[:4])
	}
	s := r.drv.Stats()
	if s.SupersededWriteBacks == 0 {
		t.Error("no superseded write-backs recorded")
	}
	if s.WriteBacks >= int64(len(zeroTails)) {
		t.Errorf("write-backs = %d, want fewer than writes", s.WriteBacks)
	}
}

func TestReadOverlaysStagedOntoDiskData(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	// Pre-populate the data disk directly.
	r.data[0].MediaWrite(2000, fill(0x11, 8))
	dev := r.drv.Dev(0)
	var got []byte
	r.env.Go("client", func(p *sim.Proc) {
		// Stage a write covering the middle of the range, then read the
		// whole range before write-back completes.
		if err := dev.Write(p, 2002, 2, fill(0x22, 2)); err != nil {
			t.Errorf("write: %v", err)
		}
		var err error
		got, err = dev.Read(p, 2000, 8)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	r.env.Run()
	if got[0] != 0x11 || got[2*geom.SectorSize] != 0x22 || got[4*geom.SectorSize] != 0x11 {
		t.Error("staged data not overlaid on disk read")
	}
}

func TestLargeWriteSplitsIntoRecords(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	const sectors = 50 // > MaxBatch, splits into 2 records
	want := fill(0x3C, sectors)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, 3000, sectors, want); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	r.env.Run()
	if got := r.data[0].MediaRead(3000, sectors); !bytes.Equal(got, want) {
		t.Error("split write corrupted data")
	}
	if s := r.drv.Stats(); s.Records < 2 {
		t.Errorf("records = %d, want >= 2 for %d sectors", s.Records, sectors)
	}
}

func TestMultipleDataDisks(t *testing.T) {
	r := newRig(t, 3, Config{})
	defer r.env.Close()
	for i := 0; i < 3; i++ {
		dev := r.drv.Dev(i)
		b := byte(i + 1)
		r.env.Go("client", func(p *sim.Proc) {
			if err := dev.Write(p, 100, 1, fill(b, 1)); err != nil {
				t.Errorf("write disk %d: %v", b, err)
			}
		})
	}
	r.env.Run()
	for i := 0; i < 3; i++ {
		if got := r.data[i].MediaRead(100, 1); got[0] != byte(i+1) {
			t.Errorf("disk %d got %d", i, got[0])
		}
	}
}

func TestShutdownMarksCleanAndReopens(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		dev.Write(p, 100, 1, fill(9, 1))
		if err := r.drv.Shutdown(p); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	r.env.Run()
	h, err := ReadHeader(r.log)
	if err != nil {
		t.Fatal(err)
	}
	if !h.CleanShutdown || h.Epoch != 1 {
		t.Errorf("post-shutdown header %+v", h)
	}
	// Reopen: epoch bumps, no recovery needed.
	drv2, err := NewDriver(r.env, r.log, r.data, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if drv2.Epoch() != 2 {
		t.Errorf("second epoch = %d", drv2.Epoch())
	}
	// Writes after shutdown on the old driver fail.
	r.env.Go("client2", func(p *sim.Proc) {
		if err := dev.Write(p, 1, 1, fill(1, 1)); !errors.Is(err, ErrClosed) {
			t.Errorf("write on closed driver: %v", err)
		}
	})
	r.env.Run()
}

func TestFixedDeltaTooSmallCostsRotation(t *testing.T) {
	// The ablation for §3.1: with the raw formula and delta too small, the
	// target sector has already passed when the command reaches the media,
	// so every write waits ~a full rotation.
	lat := func(cfg Config) time.Duration {
		r := newRig(t, 1, cfg)
		defer r.env.Close()
		dev := r.drv.Dev(0)
		var total time.Duration
		r.env.Go("client", func(p *sim.Proc) {
			dev.Write(p, 0, 1, fill(1, 1)) // establish reference
			for i := 1; i <= 5; i++ {
				p.Sleep(3 * time.Millisecond)
				start := p.Now()
				dev.Write(p, int64(i*10), 1, fill(1, 1))
				total += p.Now().Sub(start)
			}
		})
		r.env.Run()
		return total / 5
	}
	good := lat(Config{})
	bad := lat(Config{FixedDelta: 1})
	rot := testLogParams().RotPeriod()
	if bad < rot/2 {
		t.Errorf("delta=1 write latency %v, want near full rotation %v", bad, rot)
	}
	if good > bad/2 {
		t.Errorf("modelled prediction %v not much better than delta=1 %v", good, bad)
	}
}

func TestSparseWritesStayFast(t *testing.T) {
	// Sparse mode: requests spaced far beyond the reposition time must see
	// consistently low latency (the track switch is masked).
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	var worst time.Duration
	r.env.Go("client", func(p *sim.Proc) {
		dev.Write(p, 0, 2, fill(1, 2))
		for i := 1; i <= 20; i++ {
			p.Sleep(30 * time.Millisecond)
			start := p.Now()
			dev.Write(p, int64(i*64), 2, fill(byte(i), 2))
			if l := p.Now().Sub(start); l > worst {
				worst = l
			}
		}
	})
	r.env.Run()
	if worst > 3*time.Millisecond {
		t.Errorf("worst sparse write latency = %v, want < 3ms", worst)
	}
}

func TestIdleRepositionRefreshes(t *testing.T) {
	r := newRig(t, 1, Config{IdleReposition: 50 * time.Millisecond})
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		dev.Write(p, 0, 1, fill(1, 1))
	})
	r.env.RunUntil(sim.Time(300 * time.Millisecond))
	if r.drv.Stats().IdleRefreshes == 0 {
		t.Error("no idle refreshes after long idle period")
	}
	r.env.Close()
}

func TestWriteValidation(t *testing.T) {
	r := newRig(t, 1, Config{})
	defer r.env.Close()
	dev := r.drv.Dev(0)
	r.env.Go("client", func(p *sim.Proc) {
		if err := dev.Write(p, -1, 1, fill(0, 1)); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Errorf("negative LBA: %v", err)
		}
		if _, err := dev.Read(p, dev.Sectors(), 1); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Errorf("read past end: %v", err)
		}
	})
	r.env.Run()
}

func TestDevIdentity(t *testing.T) {
	r := newRig(t, 2, Config{})
	defer r.env.Close()
	if id := r.drv.Dev(1).ID(); id != (blockdev.DevID{Major: 8, Minor: 1}) {
		t.Errorf("dev 1 ID = %v", id)
	}
	if r.drv.Dev(0).Sectors() != r.data[0].Geom().TotalSectors() {
		t.Error("dev size mismatch")
	}
}

func TestInvariantsHoldThroughWorkload(t *testing.T) {
	r := newRig(t, 2, Config{})
	defer r.env.Close()
	rng := sim.NewRand(6)
	for i := 0; i < 15; i++ {
		devIdx := i % 2
		lba := rng.Int64n(1000) * 8
		n := rng.IntRange(1, 8)
		r.env.Go("w", func(p *sim.Proc) {
			dev := r.drv.Dev(devIdx)
			if err := dev.Write(p, lba, n, fill(byte(n), n)); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := r.drv.CheckInvariants(); err != nil {
				t.Errorf("after write: %v", err)
			}
		})
	}
	// Check at intermediate points while write-back races the writers.
	for i := 0; i < 30; i++ {
		r.env.RunUntil(r.env.Now().Add(2 * time.Millisecond))
		if err := r.drv.CheckInvariants(); err != nil {
			t.Fatalf("mid-run: %v", err)
		}
	}
	r.env.Run()
	if err := r.drv.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	if r.drv.OutstandingRecords() != 0 {
		t.Error("records left outstanding after drain")
	}
}
