package trail

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/trace"
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
	m := headModel{rotPeriod: rot}
	if m.valid {
		t.Error("fresh head model claims a reference")
	}
	// Head just passed the end of sector 5 at t=0: angle = 6/60.
	m.completed(0, &g, geom.CHS{Cyl: 0, Head: 0, Sector: 5})
	if !m.valid {
		t.Fatal("completed did not set a reference")
	}
	if got, want := m.angleAt(0), 6.0/60.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("angleAt(0) = %v, want %v", got, want)
	}
	// Half a revolution later: +0.5.
	if got, want := m.angleAt(sim.Time(rot/2)), 6.0/60.0+0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("angleAt(half) = %v, want %v", got, want)
	}
	// Full revolutions wrap.
	if got, want := m.angleAt(sim.Time(3*rot)), 6.0/60.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("angleAt(3 revs) = %v, want %v", got, want)
	}
	m.faulted(sim.Time(rot))
	if m.valid {
		t.Error("faulted did not clear the reference")
	}
	if m.lastEnd != sim.Time(rot) {
		t.Errorf("faulted command's end = %v, want %v", m.lastEnd, rot)
	}
}

func TestPredictorAngleInRange(t *testing.T) {
	g := geom.Uniform(10, 2, 60)
	m := headModel{rotPeriod: 11111 * time.Microsecond}
	m.completed(0, &g, geom.CHS{Cyl: 3, Head: 1, Sector: 59})
	f := func(raw uint32) bool {
		a := m.angleAt(sim.Time(raw))
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
	m := headModel{rotPeriod: rot}
	m.completed(0, &g, geom.CHS{Cyl: 0, Head: 0, Sector: 10})
	// 1/4 revolution = 15 sectors; S0=10, delta=3 -> 28.
	if got := m.predictSector(sim.Time(rot/4), 60, 3); got != 28 {
		t.Errorf("predictSector = %d, want 28", got)
	}
	// recordSector takes the formula whenever FixedDelta is set.
	if got := m.recordSector(sim.Time(rot/4), &g, 0, 0, 3); got != 28 {
		t.Errorf("recordSector with fixed delta 3 = %d, want 28", got)
	}
	// Wraps mod SPT.
	m.completed(0, &g, geom.CHS{Cyl: 0, Head: 0, Sector: 50})
	if got := m.predictSector(sim.Time(rot/2), 60, 5); got != (30+50+5)%60 {
		t.Errorf("predictSector wrap = %d", got)
	}
}

func TestTargetSectorCatchable(t *testing.T) {
	// Whatever the time, the chosen target's start must be at or after the
	// predicted angle (catchable without an extra rotation). With no read
	// overhead and no arm move, a read's media phase begins when it is issued.
	g := geom.Uniform(10, 2, 60)
	g.TrackSkew = 4
	rot := 10 * time.Millisecond
	m := headModel{rotPeriod: rot}
	m.completed(0, &g, geom.CHS{Cyl: 2, Head: 1, Sector: 17})
	f := func(raw uint16, rawSafety uint8) bool {
		at := sim.Time(raw) * 1000
		safety := int(rawSafety % 4)
		s := m.readSector(at, 0, &g, 2, 1, safety)
		if s < 0 || s >= 60 {
			return false
		}
		angle := m.angleAt(at)
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
	m := headModel{rotPeriod: time.Millisecond}
	defer func() {
		if recover() == nil {
			t.Error("angleAt without reference did not panic")
		}
	}()
	m.angleAt(0)
}

// TestHeadModelTimingRules holds the head model's command-overhead and arm
// rules to the datasheet it copied: a write reaches the media after the
// write overhead and settle, and after the turnaround only when a previous
// command (clean or faulted) ended recently; an arm move costs a head switch
// on the same cylinder, the track-to-track seek one cylinder away and the
// average seek farther.
func TestHeadModelTimingRules(t *testing.T) {
	pp := testLogParams() // overhead 500us, settle 100us, turnaround 600us
	g := pp.Geom
	us := func(n int64) sim.Time { return sim.Time(n * int64(time.Microsecond)) }
	for _, tc := range []struct {
		name    string
		lastEnd sim.Time // 0: no previous command
		fault   bool
		now     sim.Time
		want    sim.Time
	}{
		{"first command pays no turnaround", 0, false, us(1000), us(1600)},
		{"first command at time zero", 0, false, 0, us(600)},
		{"hot on the heels waits out the turnaround", us(1000), false, us(1100), us(2200)},
		{"turnaround ends exactly at issue", us(1000), false, us(1600), us(2200)},
		{"turnaround long past", us(1000), false, us(5000), us(5600)},
		{"a faulted command counts too", us(1000), true, us(1000), us(2200)},
	} {
		t.Run("media start/"+tc.name, func(t *testing.T) {
			m := newHeadModel(pp)
			switch {
			case tc.fault:
				m.faulted(tc.lastEnd)
			case tc.lastEnd > 0:
				m.completed(tc.lastEnd, &g, geom.CHS{})
			}
			if got := m.mediaStart(tc.now); got != tc.want {
				t.Errorf("mediaStart(%v) = %v, want %v", tc.now, got, tc.want)
			}
		})
	}
	m := newHeadModel(pp)
	for _, tc := range []struct {
		from, to int
		want     time.Duration
	}{
		{5, 5, pp.HeadSwitch},
		{5, 6, pp.SeekT2T},
		{5, 4, pp.SeekT2T},
		{5, 7, pp.SeekAvg},
		{11, 0, pp.SeekAvg},
		{0, 11, pp.SeekAvg},
	} {
		if got := m.moveCost(tc.from, tc.to); got != tc.want {
			t.Errorf("moveCost(%d, %d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	// Without a reference a reference read lands on sector 0.
	if got := m.readSector(us(123), pp.SeekT2T, &g, 3, 1, repositionMargin); got != 0 {
		t.Errorf("readSector without reference = %d, want 0", got)
	}
}

func TestPredictorMatchesDiskPhase(t *testing.T) {
	// End-to-end: after a real disk command, the head model's angle must
	// track the simulated spindle exactly (same rotation period).
	env := sim.NewEnv()
	defer env.Close()
	d := newTestDisk(env)
	m := newHeadModel(d.Params())
	g := d.Geom()
	env.Go("probe", func(p *sim.Proc) {
		// Read sector 7 of track (0,0); at completion the head is at the
		// end of sector 7.
		req := diskReq(7, 1)
		d.Access(p, req)
		m.completed(p.Now(), g, geom.CHS{Cyl: 0, Head: 0, Sector: 7})
		// Advance arbitrary time, then read exactly the sector the
		// model says is next + margin; rotational wait must be under
		// two sector times.
		p.Sleep(7777 * time.Microsecond)
		target := m.readSector(p.Now(), 0, g, 0, 0, safetySectors)
		req2 := diskReq(int64(target), 1)
		res := d.Access(p, req2)
		if maxWait := 2 * d.Params().SectorTime(); res.Phases[disk.RotWait] > maxWait {
			t.Errorf("predicted read waited %v rotation, want <= %v", res.Phases[disk.RotWait], maxWait)
		}
	})
	env.Run()
}

// probeScore is the drive's ground truth for a media access to sector
// target of track (cyl, head) starting at at: the rotational wait and the
// slack in sectors between the first sector whose start the head can still
// catch and the target. The disk model once handed this probe to the tracer
// to audit the driver's predictions; it is kept here as the reference the
// driver's completion-derived score is held to.
func probeScore(pp disk.Params, at sim.Time, cyl, head, target int) (time.Duration, int) {
	g := &pp.Geom
	rp := int64(pp.RotPeriod())
	phase := float64(int64(at)%rp) / float64(rp)
	diff := g.SectorAngle(geom.CHS{Cyl: cyl, Head: head, Sector: target}) - phase
	if diff < 0 {
		diff++
	}
	spt := g.SPTAt(cyl)
	next := g.ClosestSectorOnTrack(cyl, head, phase, 0)
	return time.Duration(diff * float64(rp)), ((target-next)%spt + spt) % spt
}

// On a drift-free rig with one log disk and with two, the driver's score of
// every clean record write, taken from the write's completion time alone,
// is the drive's truth: its wait is the rotational wait the drive charged
// the command, and wait and slack are what the drive's own probe reports
// at the predicted media start. Writers that queue behind each other make
// records that pay the write turnaround, and sizes of 1 to 8 sectors at
// irregular gaps spread the landings over the track.
func TestRecordScoreMatchesDrive(t *testing.T) {
	for _, nLogs := range []int{1, 2} {
		env, logs, _, drv := newMultiRig(t, nLogs, Config{})
		tr := trace.New(0)
		drv.SetTracer(tr)
		dev := drv.Dev(0)
		for w := 0; w < 3; w++ {
			env.Go("writer", func(p *sim.Proc) {
				rng := sim.NewRand(uint64(7 + w))
				for i := 0; i < 150; i++ {
					n := 1 + rng.Intn(8)
					if err := dev.Write(p, int64(w*400+rng.Intn(300)), n, fill(byte(i), n)); err != nil {
						t.Error(err)
						return
					}
					p.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
				}
			})
		}
		env.Run()
		env.Close()

		pp := logs[0].Params()
		type command struct {
			rot, turn time.Duration
			lba       int64
			write     bool
		}
		open := map[string]*command{} // phases since each track's last command
		last := map[string]command{}  // each track's last command
		var scored, turned int64
		for _, ev := range tr.Events() {
			c := open[ev.Track]
			if c == nil {
				c = &command{}
				open[ev.Track] = c
			}
			switch ev.Kind {
			case trace.KTurnaround:
				c.turn += time.Duration(ev.Dur)
			case trace.KRotWait:
				c.rot += time.Duration(ev.Dur)
			case trace.KCommand:
				c.lba, c.write = ev.LBA, ev.B == 1
				last[ev.Track], *c = *c, command{}
			case trace.KPredict:
				cmd := last[ev.Track]
				a := pp.Geom.ToCHS(cmd.lba)
				if !cmd.write || a.Sector != int(ev.LBA) || ev.Count != pp.Geom.SPTAt(a.Cyl) {
					t.Fatalf("%d logs: predict %+v does not follow its record write %+v", nLogs, ev, cmd)
				}
				wait, slack := probeScore(pp, sim.Time(ev.At), a.Cyl, a.Head, a.Sector)
				if time.Duration(ev.B) != cmd.rot || time.Duration(ev.B) != wait || int(ev.A) != slack {
					t.Errorf("%d logs: record at %v: scored wait %v slack %d; drive charged %v, probe says %v and %d",
						nLogs, sim.Time(ev.At), time.Duration(ev.B), ev.A, cmd.rot, wait, slack)
				}
				scored++
				if cmd.turn > 0 {
					turned++
				}
			}
		}
		if st := drv.Stats(); scored != st.Records || tr.Dropped() != 0 {
			t.Errorf("%d logs: %d records scored of %d (%d events dropped)", nLogs, scored, st.Records, tr.Dropped())
		}
		if turned == 0 {
			t.Errorf("%d logs: no scored record paid the write turnaround", nLogs)
		}
		t.Logf("%d logs: %d records scored, %d after a turnaround", nLogs, scored, turned)
	}
}
