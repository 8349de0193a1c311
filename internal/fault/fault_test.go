package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

func testDisk(env *sim.Env) *disk.Disk {
	return disk.New(env, disk.Params{
		Name:            "f",
		RPM:             7200,
		Geom:            geom.Uniform(8, 2, 64),
		SeekT2T:         time.Millisecond,
		SeekAvg:         2 * time.Millisecond,
		SeekMax:         4 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
}

// access runs one command against the raw disk from a fresh proc.
func access(env *sim.Env, d *disk.Disk, req *disk.Request) disk.Result {
	var res disk.Result
	env.Go("cmd", func(p *sim.Proc) { res = d.Access(p, req) })
	env.Run()
	return res
}

// TestPlanDeterminism: the same seed and config must sample the identical
// plan — fault locations, onsets, timeout ordinals.
func TestPlanDeterminism(t *testing.T) {
	cfg := Config{
		LatentReadErrors:  5,
		LatentWriteErrors: 3,
		LatentOnsetWindow: time.Second,
		Timeouts:          4,
		GrowingRegion:     10,
		FailAt:            time.Minute,
	}
	render := func() string {
		p := NewPlan(sim.NewRand(7), 1024, cfg)
		var s string
		for lba := int64(0); lba < 1024; lba++ {
			if err := p.SectorFault(sim.Time(time.Second), false, lba); err != nil {
				s += fmt.Sprintf("r%d;", lba)
			}
			if err := p.SectorFault(sim.Time(time.Second), true, lba); err != nil {
				s += fmt.Sprintf("w%d;", lba)
			}
		}
		for ord := 0; ord < 2000; ord++ {
			if f := p.CommandFault(0, false, 0, 1); f.Err != nil {
				s += fmt.Sprintf("t%d;", ord)
			}
		}
		return s
	}
	if a, b := render(), render(); a != b {
		t.Errorf("identical seeds sampled different plans:\n%s\n%s", a, b)
	}
}

// TestLatentReadErrorAndWriteHeal: a latent read error surfaces at its
// onset, truncates the read at the failing sector, and heals on rewrite.
func TestLatentReadErrorAndWriteHeal(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	plan := Attach(d, sim.NewRand(3), Config{LatentReadErrors: 1, MaxLBA: 16})
	lba := plan.LatentLBAs()[0]

	res := access(env, d, &disk.Request{LBA: lba, Count: 1, Data: make([]byte, geom.SectorSize)})
	if !errors.Is(res.Err, blockdev.ErrMediaError) {
		t.Fatalf("latent read: %v", res.Err)
	}
	if res.Transferred != 0 {
		t.Errorf("Transferred = %d for a fault on the first sector", res.Transferred)
	}

	// A successful rewrite remaps the sector.
	if res := access(env, d, &disk.Request{Write: true, LBA: lba, Count: 1, Data: make([]byte, geom.SectorSize)}); res.Err != nil {
		t.Fatalf("healing write: %v", res.Err)
	}
	if res := access(env, d, &disk.Request{LBA: lba, Count: 1, Data: make([]byte, geom.SectorSize)}); res.Err != nil {
		t.Errorf("read after heal: %v", res.Err)
	}
	if s := plan.Stats(); s.MediaErrors != 1 || s.Repaired != 1 {
		t.Errorf("stats = %+v, want 1 media error and 1 repair", s)
	}
	if left := plan.UnrepairedReadErrors(env.Now()); len(left) != 0 {
		t.Errorf("unrepaired after heal: %v", left)
	}
}

// TestLatentWriteErrorDoesNotHeal: write latents fail writes, leave reads
// alone, and a "successful" overwrite of other sectors doesn't clear them.
func TestLatentWriteErrorDoesNotHeal(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	plan := Attach(d, sim.NewRand(3), Config{LatentWriteErrors: 1, MaxLBA: 16})
	lba := plan.LatentLBAs()[0]

	if res := access(env, d, &disk.Request{LBA: lba, Count: 1, Data: make([]byte, geom.SectorSize)}); res.Err != nil {
		t.Errorf("read of write-latent sector: %v", res.Err)
	}
	for i := 0; i < 2; i++ {
		res := access(env, d, &disk.Request{Write: true, LBA: lba, Count: 1, Data: make([]byte, geom.SectorSize)})
		if !errors.Is(res.Err, blockdev.ErrMediaError) {
			t.Errorf("write attempt %d: %v", i, res.Err)
		}
	}
}

// TestTimeoutIsOneShot: a timed-out command wastes the configured delay and
// the retry goes through.
func TestTimeoutIsOneShot(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	plan := Attach(d, sim.NewRand(9), Config{Timeouts: 1, TimeoutWindow: 1, TimeoutDelay: 40 * time.Millisecond})

	start := env.Now()
	res := access(env, d, &disk.Request{LBA: 0, Count: 1, Data: make([]byte, geom.SectorSize)})
	if !errors.Is(res.Err, blockdev.ErrTimeout) {
		t.Fatalf("first command: %v", res.Err)
	}
	if waited := env.Now().Sub(start); waited < 40*time.Millisecond {
		t.Errorf("timeout cost %v, want >= 40ms", waited)
	}
	if res := access(env, d, &disk.Request{LBA: 0, Count: 1, Data: make([]byte, geom.SectorSize)}); res.Err != nil {
		t.Errorf("retry: %v", res.Err)
	}
	if plan.Stats().Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", plan.Stats().Timeouts)
	}
}

// TestGrowingRegionSpreads: the defect gains a sector per interval and
// rewrites do not heal it.
func TestGrowingRegionSpreads(t *testing.T) {
	p := NewPlan(sim.NewRand(4), 1024, Config{GrowingRegion: 4, GrowthInterval: 100 * time.Millisecond, MaxLBA: 100})
	count := func(at sim.Time) int {
		n := 0
		for lba := int64(0); lba < 1024; lba++ {
			if p.SectorFault(at, false, lba) != nil {
				n++
			}
		}
		return n
	}
	if got := count(0); got != 1 {
		t.Errorf("defect size at t=0: %d, want 1", got)
	}
	if got := count(sim.Time(250 * time.Millisecond)); got != 3 {
		t.Errorf("defect size at t=250ms: %d, want 3", got)
	}
	if got := count(sim.Time(time.Hour)); got != 4 {
		t.Errorf("defect size at t=1h: %d, want cap 4", got)
	}
}

// TestDeviceFailureRejectsEverything.
func TestDeviceFailureRejectsEverything(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	plan := Attach(d, sim.NewRand(1), Config{FailAt: 10 * time.Millisecond})

	if res := access(env, d, &disk.Request{LBA: 0, Count: 1, Data: make([]byte, geom.SectorSize)}); res.Err != nil {
		t.Fatalf("pre-failure command: %v", res.Err)
	}
	env.Go("wait", func(p *sim.Proc) { p.Sleep(20 * time.Millisecond) })
	env.Run()
	for i := 0; i < 2; i++ {
		res := access(env, d, &disk.Request{Write: i == 1, LBA: 0, Count: 1, Data: make([]byte, geom.SectorSize)})
		if !errors.Is(res.Err, blockdev.ErrDeviceFailed) {
			t.Errorf("post-failure command %d: %v", i, res.Err)
		}
	}
	if !plan.Dead(env.Now()) || plan.Stats().DeviceRejects != 2 {
		t.Errorf("dead=%v rejects=%d", plan.Dead(env.Now()), plan.Stats().DeviceRejects)
	}
}

// TestParseScenario covers the -faults DSL.
func TestParseScenario(t *testing.T) {
	cfg, err := ParseScenario("latent=3, wlatent=2, onset=5s, timeout=1, twindow=500, tdelay=10ms, grow=8, growint=2s, failat=30s, maxlba=4096")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		LatentReadErrors:  3,
		LatentWriteErrors: 2,
		LatentOnsetWindow: 5 * time.Second,
		Timeouts:          1,
		TimeoutWindow:     500,
		TimeoutDelay:      10 * time.Millisecond,
		GrowingRegion:     8,
		GrowthInterval:    2 * time.Second,
		FailAt:            30 * time.Second,
		MaxLBA:            4096,
	}
	if cfg != want {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
	const canonical = "latent=3,wlatent=2,onset=5s,timeout=1,twindow=500,tdelay=10ms,grow=8,growint=2s,failat=30s,maxlba=4096"
	if s := want.String(); s != canonical {
		t.Errorf("String() = %q, want %q", s, canonical)
	}
	if back, err := ParseScenario(want.String()); err != nil || back != want {
		t.Errorf("ParseScenario(String()) = %+v, %v; want %+v", back, err, want)
	}
	if cfg, err := ParseScenario(""); err != nil || cfg != (Config{}) {
		t.Errorf("empty scenario: %+v, %v", cfg, err)
	}
	for _, bad := range []string{"latent", "latent=x", "bogus=1", "onset=5"} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) accepted", bad)
		}
	}
}

// TestParseScenarioMalformed table-drives the rejection paths: every bad
// scenario must be refused with an error naming the offending term.
func TestParseScenarioMalformed(t *testing.T) {
	cases := []struct {
		scenario string
		token    string // substring the error must carry
	}{
		{"latent", `"latent"`},
		{"=3", `""`},
		{"latent=", `"latent="`},
		{"latent=three", `"latent=three"`},
		{"latent=3,latent=5", `duplicate key "latent"`},
		{"timeout=1,latent=2,timeout=9", `duplicate key "timeout"`},
		{"latent=3, latent=5", `duplicate key "latent"`},
		{"onset=5s,onset=10s", `duplicate key "onset"`},
		{"unknownkey=1", `"unknownkey"`},
		{"maxlba=1e9", `"maxlba=1e9"`},
		{"tdelay=10", `"tdelay=10"`},
		{"latent=3,,timeout=1", `""`},
	}
	for _, c := range cases {
		_, err := ParseScenario(c.scenario)
		if err == nil {
			t.Errorf("ParseScenario(%q) accepted", c.scenario)
			continue
		}
		if !strings.Contains(err.Error(), c.token) {
			t.Errorf("ParseScenario(%q) error %q does not name %s", c.scenario, err, c.token)
		}
	}
	// Distinct keys remain legal — duplicate detection must not overreach.
	if _, err := ParseScenario("latent=3,wlatent=3"); err != nil {
		t.Errorf("distinct keys rejected: %v", err)
	}
}
