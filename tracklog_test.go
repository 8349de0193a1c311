package tracklog_test

import (
	"bytes"
	"testing"
	"time"

	"tracklog"
)

func TestSystemWriteReadRoundTrip(t *testing.T) {
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{DataDisks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	want := bytes.Repeat([]byte{0x42}, 8*tracklog.SectorSize)
	var got []byte
	sys.Go("client", func(p *tracklog.Proc) {
		dev := sys.Trail.Dev(1)
		if err := dev.Write(p, 4096, 8, want); err != nil {
			t.Errorf("write: %v", err)
		}
		got, err = dev.Read(p, 4096, 8)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	sys.Run()
	if !bytes.Equal(got, want) {
		t.Error("round trip mismatch")
	}
}

func TestSystemSyncWriteLatency(t *testing.T) {
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var lat time.Duration
	sys.Go("client", func(p *tracklog.Proc) {
		dev := sys.Trail.Dev(0)
		dev.Write(p, 0, 2, make([]byte, 2*tracklog.SectorSize)) // warm reference
		p.Sleep(20 * time.Millisecond)
		start := p.Now()
		dev.Write(p, 10000, 2, make([]byte, 2*tracklog.SectorSize))
		lat = p.Now().Sub(start)
	})
	sys.Run()
	// The headline: a synchronous write in ~transfer + command overhead.
	if lat > 2*time.Millisecond {
		t.Errorf("1KB sync write = %v, want < 2ms", lat)
	}
}

func TestSystemCrashRecoverCycle(t *testing.T) {
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, tracklog.SectorSize)
	logged := false
	sys.Go("client", func(p *tracklog.Proc) {
		if err := sys.Trail.Dev(0).Write(p, 123, 1, want); err != nil {
			t.Errorf("write: %v", err)
		}
		logged = true
	})
	// Run just past the log write, then cut power before write-back.
	for i := 0; i < 100 && !logged; i++ {
		sys.RunUntil(sys.Env.Now().Add(time.Millisecond))
	}
	if !logged {
		t.Fatal("write never became durable")
	}
	sys.Crash()

	recovered, rep, err := sys.Recover(tracklog.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rep.Clean || rep.RecordsFound == 0 {
		t.Fatalf("report %+v", rep)
	}
	var got []byte
	recovered.Go("client", func(p *tracklog.Proc) {
		got, err = recovered.Trail.Dev(0).Read(p, 123, 1)
		if err != nil {
			t.Errorf("read: %v", err)
		}
	})
	recovered.Run()
	if !bytes.Equal(got, want) {
		t.Error("data lost across crash")
	}
}

// A power cut takes the driver's host memory with it: after Crash the dead
// driver holds no staged block, refuses I/O, and still answers for what it
// did, while Recover rebuilds everything acknowledged from the platters.
func TestCrashDropsHostStateKeepsStats(t *testing.T) {
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 24
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8*tracklog.SectorSize) }
	acked := 0
	sys.Go("client", func(p *tracklog.Proc) {
		for i := 0; i < writes; i++ {
			if err := sys.Trail.Dev(0).Write(p, int64(i)*4096, 8, block(i)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			acked++
		}
	})
	for i := 0; i < 1000 && acked < writes; i++ {
		sys.RunUntil(sys.Env.Now().Add(time.Millisecond))
	}
	before := sys.Trail.Stats()
	if sys.Trail.StagedBytes() == 0 || before.Writes != writes {
		t.Fatalf("staged %d bytes after %d writes at the cut; want write-back behind the log",
			sys.Trail.StagedBytes(), before.Writes)
	}
	sys.Crash()
	if got := sys.Trail.StagedBytes(); got != 0 {
		t.Errorf("dead driver still pins %d staged bytes", got)
	}
	if sys.Trail.Stats() != before {
		t.Error("the dead driver's Stats changed across the cut")
	}

	recovered, rep, err := sys.Recover(tracklog.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rep.Clean || rep.BlocksReplayed == 0 {
		t.Fatalf("report %+v", rep)
	}
	recovered.Go("client", func(p *tracklog.Proc) {
		for i := 0; i < writes; i++ {
			got, err := recovered.Trail.Dev(0).Read(p, int64(i)*4096, 8)
			if err != nil || !bytes.Equal(got, block(i)) {
				t.Errorf("block %d lost across the cut (err %v)", i, err)
			}
		}
		if _, err := sys.Trail.Dev(0).Read(p, 0, 8); err == nil {
			t.Error("the dead driver still serves reads")
		}
	})
	recovered.Run()
}

func TestStandardDeviceBaseline(t *testing.T) {
	env := tracklog.NewEnv()
	defer env.Close()
	d := tracklog.NewDisk(env, tracklog.WDCaviar())
	dev := tracklog.NewStandardDevice(env, d, tracklog.DevID{Major: 3})
	var lat time.Duration
	env.Go("client", func(p *tracklog.Proc) {
		start := p.Now()
		if err := dev.Write(p, 999999, 2, make([]byte, 2*tracklog.SectorSize)); err != nil {
			t.Errorf("write: %v", err)
		}
		lat = p.Now().Sub(start)
	})
	env.Run()
	if lat < 5*time.Millisecond {
		t.Errorf("baseline write %v suspiciously fast", lat)
	}
}

func TestDriveProfiles(t *testing.T) {
	st := tracklog.ST41601N()
	if st.Geom.TotalTracks() != 35717 {
		t.Error("ST41601N track count wrong")
	}
	wd := tracklog.WDCaviar()
	if wd.Geom.TotalTracks() < 100000 {
		t.Error("WDCaviar track count wrong")
	}
}

func TestSystemMultiLog(t *testing.T) {
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{LogDisks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.LogDisks) != 2 || sys.Trail.NumLogDisks() != 2 {
		t.Fatalf("log disks = %d", len(sys.LogDisks))
	}
	logged := false
	sys.Go("client", func(p *tracklog.Proc) {
		for i := 0; i < 6; i++ {
			if err := sys.Trail.Dev(0).Write(p, int64(i*64), 1, make([]byte, tracklog.SectorSize)); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		logged = true
	})
	for i := 0; i < 200 && !logged; i++ {
		sys.RunUntil(sys.Env.Now().Add(time.Millisecond))
	}
	if !logged {
		t.Fatal("writes never completed")
	}
	sys.Crash()
	recovered, rep, err := sys.Recover(tracklog.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if rep.Clean {
		t.Error("multi-log crash reported clean")
	}
	var got []byte
	recovered.Go("reader", func(p *tracklog.Proc) {
		got, err = recovered.Trail.Dev(0).Read(p, 0, 1)
	})
	recovered.Run()
	if err != nil || len(got) != tracklog.SectorSize {
		t.Errorf("read after multi-log recovery: %v", err)
	}
}

// A recovered system restarts with the crashed system's own TrailConfig, not
// the defaults: with one-sector batches, concurrent one-sector writers on the
// rebooted driver still get one record per write.
func TestRecoverKeepsTrailConfig(t *testing.T) {
	cfg := tracklog.DefaultTrailConfig()
	cfg.MaxBatchSectors = 1
	sys, err := tracklog.NewSystem(tracklog.SystemConfig{Trail: cfg})
	if err != nil {
		t.Fatal(err)
	}
	sys.Go("client", func(p *tracklog.Proc) {
		if err := sys.Trail.Dev(0).Write(p, 0, 1, make([]byte, tracklog.SectorSize)); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	sys.RunUntil(sys.Env.Now().Add(5 * time.Millisecond))
	sys.Crash()
	recovered, _, err := sys.Recover(tracklog.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	const writers, per = 6, 10
	for w := 0; w < writers; w++ {
		recovered.Go("writer", func(p *tracklog.Proc) {
			for i := 0; i < per; i++ {
				if err := recovered.Trail.Dev(0).Write(p, int64(w*per+i)*64, 1, make([]byte, tracklog.SectorSize)); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		})
	}
	recovered.Run()
	if s := recovered.Trail.Stats(); s.Writes != writers*per || s.Records != s.Writes {
		t.Errorf("%d records for %d writes on the recovered system; MaxBatchSectors was dropped", s.Records, s.Writes)
	}
}
