package experiments

// The gate sections: the sync-write grid, the overload point, a crash
// exploration window, the simulation kernel's cost per stack world and the
// cluster sweep. Their sizes and seed are constants, not the run's Sizing
// and seed, so every sizing writes the same rows; changing any of them
// re-baselines BENCH_trail.json.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

const (
	gateSeed        = 1
	gridWrites      = 200
	worldWrites     = 400
	clusterRequests = 600
	exploreWindow   = 60
)

// entryTable renders gate entries one per line, latencies in µs, each rate
// after them; the entries' counters are left to the JSON file.
func entryTable(es []benchfmt.Entry, err error) (string, []benchfmt.Entry, error) {
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %6s %10s %10s %10s\n", "entry", "count", "mean us", "p50 us", "p99 us")
	for _, e := range es {
		fmt.Fprintf(&b, "%-32s %6d %10.1f %10.1f %10.1f", e.Name, e.Count, e.MeanUS, e.P50US, e.P99US)
		names := make([]string, 0, len(e.Rates))
		for name := range e.Rates {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "  %s %.1f", name, e.Rates[name])
		}
		b.WriteByte('\n')
	}
	return b.String(), es, nil
}

// syncWriteGrid runs both systems, both arrival modes, 1 KB and 8 KB writes,
// one process of gridWrites each on a fresh rig: sync-write/<system>/<mode>/<size>.
func syncWriteGrid() ([]benchfmt.Entry, error) {
	var out []benchfmt.Entry
	for _, sys := range syncSystems {
		for _, mode := range []workload.Mode{workload.Sparse, workload.Clustered} {
			for _, sizeKB := range []int{1, 8} {
				name := fmt.Sprintf("sync-write/%s/%v/%dKB", sys.name, mode, sizeKB)
				pt, err := runPoint(name, sys.cfg, false, syncWrites(workload.SyncWriteConfig{
					Mode:             mode,
					WriteSize:        sizeKB * 1024,
					Processes:        1,
					WritesPerProcess: gridWrites,
					Seed:             gateSeed,
				}))
				if err != nil {
					return nil, err
				}
				e := benchfmt.Latency(name, pt.res[0].Writes)
				if pt.trail != nil {
					e.Counters = pt.trail.Counters()
				}
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// overloadGate is the overload point, QoS off and on, at gridWrites
// open-loop arrivals: overload/qos=<off|on>/2.0x.
func overloadGate() ([]benchfmt.Entry, error) {
	ov, err := Overload()
	if err != nil {
		return nil, err
	}
	var out []benchfmt.Entry
	for _, row := range ov.Rows {
		qos := "off"
		if row.QoS {
			qos = "on"
		}
		out = append(out, benchfmt.Entry{
			Name:   fmt.Sprintf("overload/qos=%s/%.1fx", qos, overloadMultiplier),
			Count:  row.Acked,
			MeanUS: benchfmt.US(row.Mean),
			P50US:  benchfmt.US(row.P50),
			P99US:  benchfmt.US(row.P99),
			Counters: map[string]int64{
				"shed":              row.Shed,
				"deadline_exceeded": row.Expired,
				"max_log_queue":     int64(row.MaxLogQueue),
			},
		})
	}
	return out, nil
}

// exploreGate explores every crash point of a fixed Trail window. The
// latency columns are the branches' cut instants, and
// branches_per_virtual_sec is explored branches over summed virtual time to
// the cuts, so a change to the probe schedule moves the entry.
func exploreGate() ([]benchfmt.Entry, error) {
	st, err := stacks.TrailStack("", 0)
	if err != nil {
		return nil, err
	}
	rep, err := crashexplore.New(st, crashexplore.Options{Seed: gateSeed, Window: exploreWindow}).Run()
	if err != nil {
		return nil, err
	}
	if rep.Failed() {
		return nil, fmt.Errorf("crash-explore: durability contract violated (first failing event %d)", rep.FirstFailing)
	}
	if err := fired("crash-explore", counter{"branches explored", int64(rep.Explored)}); err != nil {
		return nil, err
	}
	cuts := telemetry.NewSummary()
	var replayed time.Duration
	for _, b := range rep.Branches {
		at := time.Duration(b.Event.At)
		cuts.Add(at)
		replayed += at
	}
	e := benchfmt.Latency(fmt.Sprintf("crash-explore/trail/window=%d", exploreWindow), cuts)
	e.Counters = map[string]int64{
		"candidates":   int64(rep.Candidates),
		"total_probes": rep.TotalProbes,
	}
	if replayed > 0 {
		e.Rates = map[string]float64{
			"branches_per_virtual_sec": float64(rep.Explored) / replayed.Seconds(),
		}
	}
	return []benchfmt.Entry{e}, nil
}

// worldGate drives worldWrites writes through each of the four crash stacks
// and reports per-write virtual latency, the kernel's work counters and
// events per virtual second, counted from the end of Build (the WAL world
// runs the simulation there): simbench/<world>.
func worldGate() ([]benchfmt.Entry, error) {
	var out []benchfmt.Entry
	for _, name := range []string{"trail", "stddisk", "raid5", "wal"} {
		e, err := worldEntry(name)
		if err != nil {
			return nil, fmt.Errorf("world %s: %w", name, err)
		}
		out = append(out, e)
	}
	return out, nil
}

func worldEntry(name string) (benchfmt.Entry, error) {
	st, err := stacks.ByName(name, "", 0)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	wf, _, err := st.Build(env)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	base := env.KernelStats()
	vstart := env.Now()
	lat := telemetry.NewSummary()
	var werr error
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < worldWrites; i++ {
			slot, version := i%crashexplore.Slots, i/crashexplore.Slots+1
			t0 := p.Now()
			if err := wf(p, slot, version); err != nil {
				werr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			lat.Add(p.Now().Sub(t0))
		}
	})
	env.Run()
	if werr != nil {
		return benchfmt.Entry{}, werr
	}
	ks := env.KernelStats().Delta(base)
	e := benchfmt.Latency("simbench/"+name, lat)
	e.Rates = map[string]float64{
		"events_per_virtual_sec": float64(ks.EventsDispatched) / env.Now().Sub(vstart).Seconds(),
	}
	e.Counters = map[string]int64{
		"events_dispatched": ks.EventsDispatched,
		"heap_pushes":       ks.HeapPushes,
		"heap_pops":         ks.HeapPops,
		"proc_wakeups":      ks.Wakeups,
		"probe_events":      ks.ProbeEvents,
	}
	return e, nil
}
