// Package fault implements deterministic media-fault injection for the
// simulated drives.
//
// A Plan is built once from a seeded sim.Rand and a Config describing the
// scenario — how many latent sector errors, transient command timeouts,
// whether a surface defect grows over time, when (if ever) the whole device
// dies — and attaches to a disk via disk.SetInjector. Every fault is
// scheduled in virtual time and sampled up front from the seeded generator,
// so a scenario is bit-reproducible: the same seed and config produce the
// same faults at the same instants, run after run.
//
// Fault semantics follow the blockdev sentinel taxonomy:
//
//   - Latent sector errors (blockdev.ErrMediaError): a specific LBA becomes
//     unreadable at a sampled onset time. Reads of that sector abort the
//     command at the sector; a successful rewrite of the sector repairs it
//     (drive remapping). Latent
//     *write* errors fail writes to the sector instead and do not self-heal.
//   - Transient timeouts (blockdev.ErrTimeout): sampled command ordinals are
//     lost after a fixed expiry delay, with no media effect. A retry of the
//     same command succeeds.
//   - Growing defect (blockdev.ErrMediaError): a contiguous region spreading
//     from a sampled start sector, one sector per growth interval. Rewrites
//     do not heal it.
//   - Device failure (blockdev.ErrDeviceFailed): from the configured instant
//     on, every command is rejected.
package fault

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// Config describes one device's fault scenario. The zero value injects
// nothing.
type Config struct {
	// LatentReadErrors is the number of latent sector errors that make a
	// sector unreadable; LatentWriteErrors fail writes to a sector instead.
	LatentReadErrors  int
	LatentWriteErrors int
	// LatentOnsetWindow is the virtual-time window in which latent errors
	// surface; each onset is sampled uniformly in [0, window). Zero means
	// all latent errors exist from the start.
	LatentOnsetWindow time.Duration
	// Timeouts is the number of transient command timeouts to inject,
	// sampled uniformly (without replacement) over the device's first
	// TimeoutWindow commands (default 1000).
	Timeouts      int
	TimeoutWindow int
	// TimeoutDelay is the virtual time a timed-out command wastes before
	// the driver sees the failure (default 25ms, a short SCSI timeout).
	TimeoutDelay time.Duration
	// GrowingRegion, when > 0, models a spreading surface defect capped at
	// this many sectors, growing one sector per GrowthInterval (default
	// 500ms) from a sampled start.
	GrowingRegion  int
	GrowthInterval time.Duration
	// FailAt, when > 0, kills the whole device at that virtual instant.
	FailAt time.Duration
	// MaxLBA restricts sampled fault locations to [0, MaxLBA), so a
	// scenario can target a workload's working set. Zero means the whole
	// device.
	MaxLBA int64
}

// withDefaults fills defaulted fields.
func (c Config) withDefaults(sectors int64) Config {
	if c.TimeoutWindow <= 0 {
		c.TimeoutWindow = 1000
	}
	if c.TimeoutDelay <= 0 {
		c.TimeoutDelay = 25 * time.Millisecond
	}
	if c.GrowthInterval <= 0 {
		c.GrowthInterval = 500 * time.Millisecond
	}
	if c.MaxLBA <= 0 || c.MaxLBA > sectors {
		c.MaxLBA = sectors
	}
	return c
}

// latent is one injected latent sector error.
type latent struct {
	lba      int64
	onset    sim.Time
	write    bool // fails writes instead of reads
	repaired bool
}

// Stats counts what the plan actually did to the device.
type Stats struct {
	// Commands counts commands inspected (including rejected ones).
	Commands int64
	// MediaErrors counts latent-error hits; GrowthErrors counts hits on the
	// growing defect region.
	MediaErrors  int64
	GrowthErrors int64
	// Timeouts counts transient command losses.
	Timeouts int64
	// DeviceRejects counts commands rejected after whole-device failure.
	DeviceRejects int64
	// Repaired counts latent read errors healed by a successful rewrite.
	Repaired int64
}

// Counters renders the stats as a counter set.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"fault.commands":       s.Commands,
		"fault.media_errors":   s.MediaErrors,
		"fault.growth_errors":  s.GrowthErrors,
		"fault.timeouts":       s.Timeouts,
		"fault.device_rejects": s.DeviceRejects,
		"fault.repaired":       s.Repaired,
	}
}

// Plan is a fully sampled fault scenario bound to one device. It implements
// disk.Injector.
type Plan struct {
	cfg     Config
	sectors int64

	latents  map[int64]*latent
	timeouts map[int64]bool // one-shot command ordinals
	growLBA  int64

	cmds  int64
	stats Stats
}

var _ disk.Injector = (*Plan)(nil)

// NewPlan samples a scenario for a device of the given size from rng. The
// plan draws a fixed number of samples at construction, so sharing one rng
// across several plans keeps the whole fleet deterministic (construction
// order matters, as with any seeded stream).
func NewPlan(rng *sim.Rand, sectors int64, cfg Config) *Plan {
	cfg = cfg.withDefaults(sectors)
	p := &Plan{
		cfg:      cfg,
		sectors:  sectors,
		latents:  make(map[int64]*latent),
		timeouts: make(map[int64]bool),
	}
	sampleLBA := func() int64 { return rng.Int64n(cfg.MaxLBA) }
	for i := 0; i < cfg.LatentReadErrors+cfg.LatentWriteErrors; i++ {
		lba := sampleLBA()
		for p.latents[lba] != nil {
			lba = sampleLBA()
		}
		var onset sim.Time
		if cfg.LatentOnsetWindow > 0 {
			onset = sim.Time(rng.Int64n(int64(cfg.LatentOnsetWindow)))
		}
		p.latents[lba] = &latent{lba: lba, onset: onset, write: i >= cfg.LatentReadErrors}
	}
	for i := 0; i < cfg.Timeouts; i++ {
		ord := 1 + rng.Int64n(int64(cfg.TimeoutWindow))
		for p.timeouts[ord] {
			ord = 1 + rng.Int64n(int64(cfg.TimeoutWindow))
		}
		p.timeouts[ord] = true
	}
	if cfg.GrowingRegion > 0 {
		p.growLBA = sampleLBA()
	}
	return p
}

// Attach samples a plan for d from rng and installs it on the drive.
func Attach(d *disk.Disk, rng *sim.Rand, cfg Config) *Plan {
	p := NewPlan(rng, d.Geom().TotalSectors(), cfg)
	d.SetInjector(p)
	return p
}

// Stats returns a copy of the trigger counters.
func (p *Plan) Stats() Stats { return p.stats }

// Clone returns a plan in this one's state that shares nothing with it: its
// own latent errors, pending timeouts and counters. A cloned drive carries
// it (disk.Disk.Clone).
func (p *Plan) Clone() disk.Injector {
	c := *p
	c.latents = make(map[int64]*latent, len(p.latents))
	for lba, l := range p.latents {
		lc := *l
		c.latents[lba] = &lc
	}
	c.timeouts = maps.Clone(p.timeouts)
	return &c
}

// LatentLBAs returns the LBAs of all injected latent errors (read and
// write kinds), sorted-free; intended for tests.
func (p *Plan) LatentLBAs() []int64 {
	out := make([]int64, 0, len(p.latents))
	for lba := range p.latents {
		out = append(out, lba)
	}
	return out
}

// UnrepairedReadErrors returns the LBAs of latent read errors that have
// surfaced by now and have not been healed by a rewrite.
func (p *Plan) UnrepairedReadErrors(now sim.Time) []int64 {
	var out []int64
	for _, l := range p.latents {
		if !l.write && !l.repaired && now >= l.onset {
			out = append(out, l.lba)
		}
	}
	return out
}

// Dead reports whether the device has failed by now.
func (p *Plan) Dead(now sim.Time) bool {
	return p.cfg.FailAt > 0 && now >= sim.Time(p.cfg.FailAt)
}

// growSize returns how many sectors of the growing defect exist at now.
func (p *Plan) growSize(now sim.Time) int64 {
	if p.cfg.GrowingRegion <= 0 {
		return 0
	}
	n := int64(now)/int64(p.cfg.GrowthInterval) + 1
	if n > int64(p.cfg.GrowingRegion) {
		n = int64(p.cfg.GrowingRegion)
	}
	return n
}

// CommandFault implements disk.Injector.
func (p *Plan) CommandFault(now sim.Time, write bool, lba int64, count int) disk.CommandFault {
	p.cmds++
	p.stats.Commands++
	if p.Dead(now) {
		p.stats.DeviceRejects++
		return disk.CommandFault{
			Err:   fmt.Errorf("%w (at %v)", blockdev.ErrDeviceFailed, time.Duration(p.cfg.FailAt)),
			Delay: time.Millisecond,
		}
	}
	if p.timeouts[p.cmds] {
		delete(p.timeouts, p.cmds) // transient: one-shot
		p.stats.Timeouts++
		return disk.CommandFault{
			Err:   fmt.Errorf("%w (command %d)", blockdev.ErrTimeout, p.cmds),
			Delay: p.cfg.TimeoutDelay,
		}
	}
	return disk.CommandFault{}
}

// SectorFault implements disk.Injector.
func (p *Plan) SectorFault(now sim.Time, write bool, lba int64) error {
	if g := p.growSize(now); g > 0 && lba >= p.growLBA && lba < p.growLBA+g {
		p.stats.GrowthErrors++
		return fmt.Errorf("%w (growing defect)", blockdev.ErrMediaError)
	}
	l := p.latents[lba]
	if l == nil || l.repaired || now < l.onset || l.write != write {
		return nil
	}
	p.stats.MediaErrors++
	return fmt.Errorf("%w (latent)", blockdev.ErrMediaError)
}

// SectorWritten implements disk.Injector: a persisted write heals a latent
// read error at the sector (the drive remaps it).
func (p *Plan) SectorWritten(lba int64) {
	if l := p.latents[lba]; l != nil && !l.write && !l.repaired {
		l.repaired = true
		p.stats.Repaired++
	}
}

// ParseScenario parses a compact scenario string of comma-separated
// key=value terms into a Config, the format cmd/trailsim's -faults flag
// takes:
//
//	latent=N     latent sector read errors
//	wlatent=N    latent sector write errors
//	onset=D      onset window for latent errors (Go duration)
//	timeout=N    transient command timeouts
//	twindow=N    command window the timeouts are sampled from
//	tdelay=D     timeout expiry delay
//	grow=N       growing defect capped at N sectors
//	growint=D    defect growth interval
//	failat=D     whole-device failure instant
//	maxlba=N     restrict fault locations to [0, N)
//
// Example: "latent=3,timeout=1,failat=30s".
func ParseScenario(s string) (Config, error) {
	var cfg Config
	err := scanTerms(s, func(term, k, v string) error {
		var err error
		switch k {
		case "latent":
			cfg.LatentReadErrors, err = strconv.Atoi(v)
		case "wlatent":
			cfg.LatentWriteErrors, err = strconv.Atoi(v)
		case "onset":
			cfg.LatentOnsetWindow, err = time.ParseDuration(v)
		case "timeout":
			cfg.Timeouts, err = strconv.Atoi(v)
		case "twindow":
			cfg.TimeoutWindow, err = strconv.Atoi(v)
		case "tdelay":
			cfg.TimeoutDelay, err = time.ParseDuration(v)
		case "grow":
			cfg.GrowingRegion, err = strconv.Atoi(v)
		case "growint":
			cfg.GrowthInterval, err = time.ParseDuration(v)
		case "failat":
			cfg.FailAt, err = time.ParseDuration(v)
		case "maxlba":
			cfg.MaxLBA, err = strconv.ParseInt(v, 10, 64)
		default:
			return fmt.Errorf("fault: unknown scenario key %q", k)
		}
		if err != nil {
			return fmt.Errorf("fault: term %q: %v", term, err)
		}
		return nil
	})
	return cfg, err
}

// String renders c as the scenario ParseScenario reads back into c: every
// non-zero field under its key, in ParseScenario's key order.
func (c Config) String() string {
	var terms []string
	num := func(k string, n int64) {
		if n != 0 {
			terms = append(terms, k+"="+strconv.FormatInt(n, 10))
		}
	}
	dur := func(k string, d time.Duration) {
		if d != 0 {
			terms = append(terms, k+"="+d.String())
		}
	}
	num("latent", int64(c.LatentReadErrors))
	num("wlatent", int64(c.LatentWriteErrors))
	dur("onset", c.LatentOnsetWindow)
	num("timeout", int64(c.Timeouts))
	num("twindow", int64(c.TimeoutWindow))
	dur("tdelay", c.TimeoutDelay)
	num("grow", int64(c.GrowingRegion))
	dur("growint", c.GrowthInterval)
	dur("failat", c.FailAt)
	num("maxlba", c.MaxLBA)
	return strings.Join(terms, ",")
}

// scanTerms splits a scenario into its comma-separated key=value terms and
// hands each to apply, in order, with the term as written for error text.
// It rejects a term that is not key=value and a repeated key: a repeated key
// is almost certainly a typo'd scenario, and letting the last value win would
// hide it.
func scanTerms(s string, apply func(term, k, v string) error) error {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	seen := make(map[string]bool)
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return fmt.Errorf("fault: term %q is not key=value", term)
		}
		if seen[k] {
			return fmt.Errorf("fault: term %q: duplicate key %q", term, k)
		}
		seen[k] = true
		if err := apply(term, k, v); err != nil {
			return err
		}
	}
	return nil
}
