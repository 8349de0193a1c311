package trail

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// newTestDisk builds a small drive for predictor integration checks.
func newTestDisk(env *sim.Env) *disk.Disk {
	return disk.New(env, testLogParams())
}

// diskReq builds a one-off read request.
func diskReq(lba int64, count int) *disk.Request {
	return &disk.Request{LBA: lba, Count: count}
}

func TestPredictorRefAndAngle(t *testing.T) {
	g := geom.Uniform(10, 2, 60)
	rot := 10 * time.Millisecond
	pr := NewPredictor(rot)
	if pr.Valid() {
		t.Error("fresh predictor claims valid")
	}
	// Head just passed the end of sector 5 at t=0: angle = 6/60.
	pr.SetRef(0, &g, geom.CHS{Cyl: 0, Head: 0, Sector: 5})
	if !pr.Valid() {
		t.Fatal("SetRef did not validate")
	}
	if got, want := pr.AngleAt(0), 6.0/60.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("AngleAt(0) = %v, want %v", got, want)
	}
	// Half a revolution later: +0.5.
	if got, want := pr.AngleAt(sim.Time(rot/2)), 6.0/60.0+0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("AngleAt(half) = %v, want %v", got, want)
	}
	// Full revolutions wrap.
	if got, want := pr.AngleAt(sim.Time(3*rot)), 6.0/60.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("AngleAt(3 revs) = %v, want %v", got, want)
	}
	pr.Invalidate()
	if pr.Valid() {
		t.Error("Invalidate did not clear")
	}
}

func TestPredictorAngleInRange(t *testing.T) {
	g := geom.Uniform(10, 2, 60)
	pr := NewPredictor(11111 * time.Microsecond)
	pr.SetRef(0, &g, geom.CHS{Cyl: 3, Head: 1, Sector: 59})
	f := func(raw uint32) bool {
		a := pr.AngleAt(sim.Time(raw))
		return a >= 0 && a < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPredictSectorFormula(t *testing.T) {
	// The paper's formula: S1 = elapsed/rot * SPT + S0 + delta (mod SPT).
	g := geom.Uniform(10, 1, 60)
	rot := 12 * time.Millisecond
	pr := NewPredictor(rot)
	pr.SetRef(0, &g, geom.CHS{Cyl: 0, Head: 0, Sector: 10})
	// 1/4 revolution = 15 sectors; S0=10, delta=3 -> 28.
	if got := pr.PredictSector(sim.Time(rot/4), 10, 60, 3); got != 28 {
		t.Errorf("PredictSector = %d, want 28", got)
	}
	// Wraps mod SPT.
	if got := pr.PredictSector(sim.Time(rot/2), 50, 60, 5); got != (30+50+5)%60 {
		t.Errorf("PredictSector wrap = %d", got)
	}
}

func TestTargetSectorCatchable(t *testing.T) {
	// Whatever the time, the chosen target's start must be at or after the
	// predicted angle (catchable without an extra rotation).
	g := geom.Uniform(10, 2, 60)
	g.TrackSkew = 4
	rot := 10 * time.Millisecond
	pr := NewPredictor(rot)
	pr.SetRef(0, &g, geom.CHS{Cyl: 2, Head: 1, Sector: 17})
	f := func(raw uint16, rawSafety uint8) bool {
		at := sim.Time(raw) * 1000
		safety := int(rawSafety % 4)
		s := pr.TargetSector(at, &g, 2, 1, safety)
		if s < 0 || s >= 60 {
			return false
		}
		angle := pr.AngleAt(at)
		sa := g.SectorAngle(geom.CHS{Cyl: 2, Head: 1, Sector: s})
		gap := sa - angle
		if gap < 0 {
			gap++
		}
		// Start lies within (safety+1) sector slots after the head.
		return gap <= float64(safety+1)/60.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAngleAtPanicsWithoutRef(t *testing.T) {
	pr := NewPredictor(time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("AngleAt without reference did not panic")
		}
	}()
	pr.AngleAt(0)
}

func TestPredictorMatchesDiskPhase(t *testing.T) {
	// End-to-end: after a real disk command, the predictor's angle must
	// track the simulated spindle exactly (same rotation period).
	env := sim.NewEnv()
	defer env.Close()
	d := newTestDisk(env)
	pr := NewPredictor(d.Params().RotPeriod())
	g := d.Geom()
	env.Go("probe", func(p *sim.Proc) {
		// Read sector 7 of track (0,0); at completion the head is at the
		// end of sector 7.
		req := diskReq(7, 1)
		d.Access(p, req)
		pr.SetRef(p.Now(), g, geom.CHS{Cyl: 0, Head: 0, Sector: 7})
		// Advance arbitrary time, then read exactly the sector the
		// predictor says is next + margin; rotational wait must be under
		// two sector times.
		p.Sleep(7777 * time.Microsecond)
		pp := d.Params()
		media := p.Now().Add(pp.ReadOverhead)
		target := pr.TargetSector(media, g, 0, 0, 1)
		req2 := diskReq(int64(target), 1)
		res := d.Access(p, req2)
		if maxWait := 2 * pp.SectorTime(0); res.Phases[disk.RotWait] > maxWait {
			t.Errorf("predicted read waited %v rotation, want <= %v", res.Phases[disk.RotWait], maxWait)
		}
	})
	env.Run()
}
