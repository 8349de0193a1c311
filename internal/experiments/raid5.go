package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
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
		a, err := raid.New(sys.Devs())
		if err != nil {
			env.Close()
			return nil, err
		}
		// One writer of one-chunk ("small") writes over the first 64th of
		// the array, 2 ms apart.
		rng := sim.NewRand(seed)
		region := a.Sectors() / 64
		ops := make([]workload.TraceOp, writes)
		for i := range ops {
			ops[i] = workload.TraceOp{Write: true, LBA: rng.Int64n(region/8) * 8, Sectors: 8}
		}
		run, err := workload.Run(env, a, workload.Load{Streams: []workload.Stream{{Name: "writer", Ops: ops, Gap: 2 * time.Millisecond}}})
		s := a.Stats()
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("raid5 %s: %w", name, err)
		}
		res.Rows = append(res.Rows, RAID5Row{
			System:       name,
			MeanWrite:    run.Writes.Mean(),
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
