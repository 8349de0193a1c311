package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/metrics"
	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
)

// RAID5Row is one configuration of the small-write experiment.
type RAID5Row struct {
	System       string
	MeanWrite    time.Duration
	SmallWrites  int64
	DeviceReads  int64
	DeviceWrites int64
}

// RAID5Result measures the paper's §6 future-work claim: track-based
// logging solves the RAID-5 small-write problem, because the data and
// parity writes of the read-modify-write cycle become fast log appends.
type RAID5Result struct {
	Rows []RAID5Row
}

// RAID5SmallWrites runs random small writes against a 4-disk RAID-5 built
// over the standard subsystem and over Trail data devices.
func RAID5SmallWrites(writes int, seed uint64) (*RAID5Result, error) {
	if writes == 0 {
		writes = 100
	}
	res := &RAID5Result{}
	for _, useTrail := range []bool{false, true} {
		const nDevs = 4
		name, cfg := "standard", rig.Config{DataDisks: nDevs, Baseline: sched.LOOK, Major: 9}
		if useTrail {
			name, cfg = "trail", rig.Config{DataDisks: nDevs}
		}
		sys, err := rig.New(cfg)
		if err != nil {
			return nil, err
		}
		env := sys.Env
		a, err := raid.New(sys.Devs(), 8)
		if err != nil {
			env.Close()
			return nil, err
		}
		lat := metrics.NewSummary()
		rng := sim.NewRand(seed)
		var ferr error
		env.Go("writer", func(p *sim.Proc) {
			region := a.Sectors() / 64
			for i := 0; i < writes; i++ {
				lba := rng.Int64n(region/8) * 8 // one chunk: a "small" write
				start := p.Now()
				if err := a.Write(p, lba, 8, make([]byte, 8*geom.SectorSize)); err != nil {
					ferr = err
					return
				}
				lat.Add(p.Now().Sub(start))
				p.Sleep(2 * time.Millisecond)
			}
		})
		deadline := sim.Time(10 * time.Minute)
		for env.Now() < deadline && lat.Count() < int64(writes) && ferr == nil {
			env.RunUntil(env.Now().Add(500 * time.Millisecond))
		}
		s := a.Stats()
		env.Close()
		if ferr != nil {
			return nil, fmt.Errorf("raid5 %s: %w", name, ferr)
		}
		if lat.Count() < int64(writes) {
			return nil, fmt.Errorf("raid5 %s: only %d of %d writes completed", name, lat.Count(), writes)
		}
		res.Rows = append(res.Rows, RAID5Row{
			System:       name,
			MeanWrite:    lat.Mean(),
			SmallWrites:  s.SmallWrites,
			DeviceReads:  s.DeviceReads,
			DeviceWrites: s.DeviceWrites,
		})
	}
	return res, nil
}

// String renders the comparison.
func (r *RAID5Result) String() string {
	var b strings.Builder
	b.WriteString("Extension (section 6): RAID-5 small writes, standard vs Trail-backed\n")
	fmt.Fprintf(&b, "%-10s %14s %13s %13s %14s\n", "system", "mean write", "small writes", "dev reads", "dev writes")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %11s ms %13d %13d %14d\n",
			row.System, fmtMS(row.MeanWrite), row.SmallWrites, row.DeviceReads, row.DeviceWrites)
	}
	if len(r.Rows) == 2 && r.Rows[1].MeanWrite > 0 {
		fmt.Fprintf(&b, "Trail speedup: %.1fx (the 2 writes of the read-modify-write become log appends)\n",
			float64(r.Rows[0].MeanWrite)/float64(r.Rows[1].MeanWrite))
	}
	return b.String()
}
