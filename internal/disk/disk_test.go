package disk

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// smallParams returns a fast-to-simulate drive for unit tests.
func smallParams() Params {
	return Params{
		Name:            "test",
		RPM:             6000, // 10 ms/rev
		Geom:            geom.Uniform(100, 2, 50),
		SeekT2T:         1 * time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: 1 * time.Millisecond,
	}
}

// SmallParams is smallParams for the package's external tests.
var SmallParams = smallParams

// runOne executes fn inside a one-process simulation and returns the final time.
func runOne(t *testing.T, d *Disk, env *sim.Env, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	env.Go("test", fn)
	return env.Run()
}

func TestProfilesMatchPaper(t *testing.T) {
	st := ST41601N()
	if err := st.Validate(); err != nil {
		t.Fatalf("ST41601N invalid: %v", err)
	}
	if got := st.Geom.TotalTracks(); got != 35717 {
		t.Errorf("ST41601N tracks = %d, want 35717 (paper §5.3)", got)
	}
	gb := float64(st.Geom.Capacity()) / (1 << 30)
	if gb < 1.25 || gb > 1.45 {
		t.Errorf("ST41601N capacity = %.2f GiB, want ~1.37", gb)
	}
	if st.RotPeriod() != 60*time.Second/5400 {
		t.Errorf("RotPeriod = %v", st.RotPeriod())
	}

	wd := WDCaviar()
	if err := wd.Validate(); err != nil {
		t.Fatalf("WDCaviar invalid: %v", err)
	}
	if got := wd.Geom.TotalTracks(); got < 100000 {
		t.Errorf("WDCaviar tracks = %d, want >100,000 (paper §4.4)", got)
	}
	gb = float64(wd.Geom.Capacity()) / 1e9
	if gb < 9 || gb > 11 {
		t.Errorf("WDCaviar capacity = %.2f GB, want ~10", gb)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := smallParams()
	p.RPM = 0
	if err := p.Validate(); err == nil {
		t.Error("zero RPM accepted")
	}
	p = smallParams()
	p.SeekAvg = p.SeekT2T / 2
	if err := p.Validate(); err == nil {
		t.Error("non-monotonic seek curve accepted")
	}
}

func TestSeekCurveCalibrationPoints(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	p := smallParams()
	if got := d.SeekTime(1); got != p.SeekT2T {
		t.Errorf("SeekTime(1) = %v, want %v", got, p.SeekT2T)
	}
	third := p.Geom.Cylinders / 3
	got := d.SeekTime(third)
	if diff := got - p.SeekAvg; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("SeekTime(C/3) = %v, want ~%v", got, p.SeekAvg)
	}
	got = d.SeekTime(p.Geom.Cylinders - 1)
	if diff := got - p.SeekMax; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("SeekTime(max) = %v, want ~%v", got, p.SeekMax)
	}
	if d.SeekTime(0) != 0 {
		t.Error("SeekTime(0) != 0")
	}
}

func TestSeekCurveMonotonic(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, ST41601N())
	prev := time.Duration(0)
	for dist := 1; dist < d.params.Geom.Cylinders; dist += 17 {
		cur := d.SeekTime(dist)
		if cur < prev {
			t.Fatalf("seek time decreased: %v at %d after %v", cur, dist, prev)
		}
		prev = cur
	}
}

func TestWriteThenReadBack(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := bytes.Repeat([]byte{0xAB}, 3*geom.SectorSize)
	var got []byte
	runOne(t, d, env, func(p *sim.Proc) {
		d.Access(p, &Request{Write: true, LBA: 10, Count: 3, Data: data})
		r := Request{LBA: 10, Count: 3}
		d.Access(p, &r)
		got = r.Data
	})
	if !bytes.Equal(got, data) {
		t.Error("read-back does not match written data")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	var got []byte
	runOne(t, d, env, func(p *sim.Proc) {
		r := Request{LBA: 500, Count: 1}
		d.Access(p, &r)
		got = r.Data
	})
	if !bytes.Equal(got, make([]byte, geom.SectorSize)) {
		t.Error("unwritten sector not zero")
	}
}

func TestFullTrackReadTakesOneRevolution(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	p := smallParams()
	d := New(env, p)
	var res Result
	runOne(t, d, env, func(proc *sim.Proc) {
		res = d.Access(proc, &Request{LBA: 0, Count: 50})
	})
	if res.Phases[Transfer] != d.rotPeriod {
		t.Errorf("transfer of full track = %v, want one revolution %v", res.Phases[Transfer], d.rotPeriod)
	}
	// Rotational wait must be under one revolution.
	if res.Phases[RotWait] >= d.rotPeriod {
		t.Errorf("rotate wait %v >= revolution", res.Phases[RotWait])
	}
}

func TestImmediateRewriteCostsFullRotation(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	p := smallParams()
	p.WriteTurnaround = 0 // isolate the rotational effect
	d := New(env, p)
	data := make([]byte, geom.SectorSize)
	var r1, r2 Result
	runOne(t, d, env, func(proc *sim.Proc) {
		r1 = d.Access(proc, &Request{Write: true, LBA: 5, Count: 1, Data: data})
		r2 = d.Access(proc, &Request{Write: true, LBA: 5, Count: 1, Data: data})
	})
	_ = r1
	// After writing sector 5 the head is just past it; writing it again
	// must wait almost a full revolution (minus the fixed overheads that
	// elapse while it spins).
	minRot := d.rotPeriod - p.WriteOverhead - p.WriteSettle - 2*d.params.SectorTime()
	if r2.Phases[RotWait] < minRot {
		t.Errorf("rewrite rotational wait = %v, want >= %v", r2.Phases[RotWait], minRot)
	}
}

func TestSequentialNextSectorIsCheap(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	p := smallParams()
	p.WriteTurnaround = 0
	d := New(env, p)
	data := make([]byte, geom.SectorSize)
	secTime := p.RotPeriod() / 50
	// Overheads consume some sectors of rotation; writing the sector that
	// is just past the overhead window should incur < 1 sector of wait.
	skip := int((p.WriteOverhead+p.WriteSettle)/secTime) + 1
	var r1, r2 Result
	runOne(t, d, env, func(proc *sim.Proc) {
		r1 = d.Access(proc, &Request{Write: true, LBA: 0, Count: 1, Data: data})
		r2 = d.Access(proc, &Request{Write: true, LBA: int64(1 + skip), Count: 1, Data: data})
	})
	_ = r1
	if r2.Phases[RotWait] > secTime {
		t.Errorf("well-placed next write waited %v rotation, want <= one sector %v", r2.Phases[RotWait], secTime)
	}
}

func TestWriteTurnaroundApplies(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	p := smallParams()
	d := New(env, p)
	data := make([]byte, geom.SectorSize)
	var back2back, spaced Result
	runOne(t, d, env, func(proc *sim.Proc) {
		d.Access(proc, &Request{Write: true, LBA: 0, Count: 1, Data: data})
		back2back = d.Access(proc, &Request{Write: true, LBA: 20, Count: 1, Data: data})
		proc.Sleep(5 * time.Millisecond) // > turnaround
		spaced = d.Access(proc, &Request{Write: true, LBA: 40, Count: 1, Data: data})
	})
	if back2back.Phases[Turnaround] != p.WriteTurnaround {
		t.Errorf("back-to-back write turnaround = %v, want %v", back2back.Phases[Turnaround], p.WriteTurnaround)
	}
	if spaced.Phases[Turnaround] != 0 {
		t.Errorf("spaced write turnaround = %v, want 0", spaced.Phases[Turnaround])
	}
}

func TestReadsSkipTurnaround(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := make([]byte, geom.SectorSize)
	var read Result
	runOne(t, d, env, func(proc *sim.Proc) {
		d.Access(proc, &Request{Write: true, LBA: 0, Count: 1, Data: data})
		read = d.Access(proc, &Request{LBA: 20, Count: 1})
	})
	if read.Phases[Turnaround] != 0 {
		t.Errorf("read paid turnaround %v", read.Phases[Turnaround])
	}
}

func TestCrossTrackTransfer(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	p := smallParams()
	d := New(env, p)
	// 10 sectors starting 5 before the end of track (0,0): crosses to head 1.
	data := bytes.Repeat([]byte{7}, 10*geom.SectorSize)
	var res Result
	var got []byte
	runOne(t, d, env, func(proc *sim.Proc) {
		res = d.Access(proc, &Request{Write: true, LBA: 45, Count: 10, Data: data})
		r := Request{LBA: 45, Count: 10}
		d.Access(proc, &r)
		got = r.Data
	})
	if !bytes.Equal(got, data) {
		t.Error("cross-track write corrupted data")
	}
	if res.Phases[HeadSwitch] == 0 {
		t.Error("cross-track transfer did not switch heads")
	}
}

func TestAccessSerializedByArm(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := make([]byte, geom.SectorSize)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		lba := int64(i * 100)
		env.Go("w", func(p *sim.Proc) {
			res := d.Access(p, &Request{Write: true, LBA: lba, Count: 1, Data: data})
			ends = append(ends, res.End)
		})
	}
	env.Run()
	if len(ends) != 3 {
		t.Fatalf("expected 3 completions, got %d", len(ends))
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Errorf("completions not serialized: %v", ends)
		}
	}
}

func TestMediaHelpers(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := bytes.Repeat([]byte{0x5A}, 2*geom.SectorSize)
	d.MediaWrite(7, data)
	if got := d.MediaRead(7, 2); !bytes.Equal(got, data) {
		t.Error("MediaRead does not match MediaWrite")
	}
	if d.WrittenSectors() != 2 {
		t.Errorf("WrittenSectors = %d, want 2", d.WrittenSectors())
	}
	d.MediaZero()
	if d.WrittenSectors() != 0 {
		t.Error("MediaZero did not clear media")
	}
}

func TestCrashMidTransferTearsAtSectorBoundary(t *testing.T) {
	env := sim.NewEnv()
	p := smallParams()
	d := New(env, p)
	data := bytes.Repeat([]byte{0xEE}, 20*geom.SectorSize)
	env.Go("writer", func(proc *sim.Proc) {
		d.Access(proc, &Request{Write: true, LBA: 0, Count: 20, Data: data})
	})
	// The op pays overhead + settle, then almost a full rotation back to
	// sector 0, then 20 sector times of transfer. Cut power mid-transfer.
	cut := p.WriteOverhead + p.WriteSettle + p.RotPeriod() + 5*p.SectorTime()
	env.RunUntil(sim.Time(cut))
	env.Close()
	n := d.WrittenSectors()
	if n == 0 || n >= 20 {
		t.Fatalf("torn write persisted %d sectors, want partial", n)
	}
	// Persisted prefix must be intact; everything after must be untouched.
	for i := 0; i < n; i++ {
		if !bytes.Equal(d.MediaRead(int64(i), 1), data[i*geom.SectorSize:(i+1)*geom.SectorSize]) {
			t.Fatalf("sector %d corrupt after crash", i)
		}
	}
	if !bytes.Equal(d.MediaRead(int64(n), 1), make([]byte, geom.SectorSize)) {
		t.Errorf("sector %d has data but WrittenSectors = %d", n, n)
	}
}

func TestReattachAfterCrash(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, smallParams())
	d.MediaWrite(3, bytes.Repeat([]byte{1}, geom.SectorSize))
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	d.Reattach(env2)
	var got []byte
	env2.Go("reader", func(p *sim.Proc) {
		r := Request{LBA: 3, Count: 1}
		d.Access(p, &r)
		got = r.Data
	})
	env2.Run()
	if got[0] != 1 {
		t.Error("media lost across Reattach")
	}
}

func TestStatsAccumulate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	data := make([]byte, 4*geom.SectorSize)
	runOne(t, d, env, func(p *sim.Proc) {
		d.Access(p, &Request{Write: true, LBA: 0, Count: 4, Data: data})
		d.Access(p, &Request{LBA: 0, Count: 4})
	})
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.SectorsWritten != 4 || s.SectorsRead != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Busy == 0 || s.TransferTime == 0 {
		t.Error("busy/transfer time not accounted")
	}
}

func TestRotateWaitProperty(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := New(env, smallParams())
	f := func(rawT uint32, rawAngle uint16) bool {
		t0 := sim.Time(rawT)
		angle := float64(rawAngle) / 65536.0
		w := d.rotateWait(t0, angle)
		return w >= 0 && w < d.rotPeriod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestOneSectorWriteLatencyMatchesPaper(t *testing.T) {
	// Paper §5.1: on the ST41601N a one-sector write request through Trail
	// is ~1.40 ms, dominated by fixed overhead. Here we check the raw
	// drive cost of a perfectly placed 2-sector record (header + 1 data)
	// is in that ballpark, which is what calibration targets.
	env := sim.NewEnv()
	defer env.Close()
	p := ST41601N()
	p.WriteTurnaround = 0
	d := New(env, p)
	data := make([]byte, 2*geom.SectorSize)
	secTime := p.SectorTime()
	skip := int((p.WriteOverhead+p.WriteSettle)/secTime) + 1
	var r2 Result
	runOne(t, d, env, func(proc *sim.Proc) {
		d.Access(proc, &Request{Write: true, LBA: 0, Count: 1, Data: data[:geom.SectorSize]})
		r2 = d.Access(proc, &Request{Write: true, LBA: int64(1 + skip), Count: 2, Data: data})
	})
	lat := r2.Latency()
	if lat < 1200*time.Microsecond || lat > 1700*time.Microsecond {
		t.Errorf("well-predicted 2-sector write = %v, want ~1.4ms (paper §5.1)", lat)
	}
}
