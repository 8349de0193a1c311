// Command trailbench is the sole writer of the benchfmt gate file
// (BENCH_trail.json): one run measures, entirely in virtual time,
//
//   - the sync-write grid: both systems, both arrival modes, 1KB and 8KB
//     writes, 200 writes each;
//   - the overload point (2.0x offered load, QoS off and on);
//   - crash-point exploration over a fixed 60-event trail window;
//   - simbench/<world>: 400 writes through each of the four shared stack
//     worlds ({trail, stddisk, raid5, wal}, the recipes cmd/crashexplore
//     uses), with the kernel's work counters and events per VIRTUAL second;
//   - cluster/shards={2,4,8}: the scale-out sweep at 600 requests.
//
// Every entry runs at seed 1, so the file is byte-deterministic: CI runs
// trailbench twice, byte-compares the two files, and gates the result
// against the checked-in baseline with `rundiff BENCH_trail.json
// BENCH_current.json`.
// Host cost (wall time, allocations) is measured from outside the module by
// bench/ (`bash bench/run.sh`), never here.
//
// Usage:
//
//	trailbench [-json FILE] [-telemetry FILE]
//	           [-timeline DUR] [-timeline-out FILE]
//
// -telemetry exports each world's unified registry as Prometheus text, one
// file per world with the world name inserted before the extension (sb.prom
// -> sb-trail.prom).
// -timeline exports per-layer state occupancy, one file per sync-write
// configuration and per world, named the same way.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/experiments"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/workload"
)

// The gate file's fixed seed and sizes. Changing any of them re-baselines
// BENCH_trail.json.
const (
	seed            = 1
	gridWrites      = 200
	worldWrites     = 400
	clusterRequests = 600
	exploreWindow   = 60
)

var worlds = []string{"trail", "stddisk", "raid5", "wal"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifacts says where a run's optional per-entry exports go.
type artifacts struct {
	telemetryBase string        // "" disables
	tlBucket      time.Duration // 0 disables
	tlBase        string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trailbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "BENCH_trail.json", "benchfmt gate file to write (empty disables)")
	telemetryOut := fs.String("telemetry", "", "telemetry export base path (Prometheus text); one file per world, world name inserted before the extension")
	tlBucket := fs.Duration("timeline", 0, "aggregate per-layer state occupancy into virtual-time buckets of this width (0 disables)")
	tlOut := fs.String("timeline-out", "timeline.csv", "timeline export base path for -timeline; one file per sync-write configuration and per world, the slash-mangled name inserted before the extension (CSV)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := measure(artifacts{telemetryBase: *telemetryOut, tlBucket: *tlBucket, tlBase: *tlOut})
	if err == nil && *jsonOut != "" {
		err = bf.WriteFile(*jsonOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "trailbench:", err)
		return 1
	}
	if *jsonOut != "" {
		fmt.Fprintf(stdout, "bench summary -> %s\n", *jsonOut)
	}
	return 0
}

// measure runs every gate entry in file order.
func measure(art artifacts) (*benchfmt.File, error) {
	bf := &benchfmt.File{Writes: gridWrites, Seed: seed}
	for _, system := range []string{"trail", "std"} {
		for _, mode := range []workload.Mode{workload.Sparse, workload.Clustered} {
			for _, sizeKB := range []int{1, 8} {
				e, err := gridPoint(system, mode, sizeKB, art)
				if err != nil {
					return nil, err
				}
				bf.Experiments = append(bf.Experiments, e)
			}
		}
	}
	ov, err := experiments.Overload([]float64{2.0}, gridWrites, seed)
	if err != nil {
		return nil, err
	}
	for _, row := range ov.Rows {
		qosStr := "off"
		if row.QoS {
			qosStr = "on"
		}
		bf.Experiments = append(bf.Experiments, benchfmt.Entry{
			Name:   fmt.Sprintf("overload/qos=%s/%.1fx", qosStr, row.Multiplier),
			Count:  row.Acked,
			MeanUS: usFloat(row.Mean),
			P50US:  usFloat(row.P50),
			P99US:  usFloat(row.P99),
			Counters: map[string]int64{
				"shed":              row.Shed,
				"deadline_exceeded": row.Expired,
				"max_log_queue":     int64(row.MaxLogQueue),
			},
		})
	}
	xp, err := explorePoint()
	if err != nil {
		return nil, err
	}
	bf.Experiments = append(bf.Experiments, xp)
	for _, name := range worlds {
		e, err := worldPoint(name, art)
		if err != nil {
			return nil, fmt.Errorf("world %s: %w", name, err)
		}
		bf.Experiments = append(bf.Experiments, e)
	}
	sweep, err := experiments.Cluster([]int{2, 4, 8}, clusterRequests, seed)
	if err != nil {
		return nil, err
	}
	for _, pt := range sweep.Points {
		bf.Experiments = append(bf.Experiments, benchfmt.Entry{
			Name:   fmt.Sprintf("cluster/shards=%d", pt.Shards),
			Count:  pt.Acked,
			MeanUS: usFloat(pt.WMean),
			P50US:  usFloat(pt.WP50),
			P99US:  usFloat(pt.WP99),
			Rates: map[string]float64{
				"acked_per_sec": pt.AckedPerSec,
			},
			Counters: map[string]int64{
				"acked":        pt.Acked,
				"shed":         pt.Shed,
				"write_failed": pt.Failed,
				"reads_ok":     pt.ReadsOK,
			},
		})
	}
	return bf, nil
}

// explorePoint measures crash-point exploration over a fixed trail window.
// All values are virtual-time (the latency columns are the per-branch cut
// instants; branches_per_virtual_sec is explored branches over summed
// replayed virtual time), so the entry is byte-deterministic and the gate
// catches probe-schedule regressions exactly.
func explorePoint() (benchfmt.Entry, error) {
	st, err := stacks.TrailStack("", 0)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	rep, err := crashexplore.New(st.Stack, crashexplore.Options{Seed: seed, Window: exploreWindow}).Run()
	if err != nil {
		return benchfmt.Entry{}, err
	}
	if rep.Failed() {
		return benchfmt.Entry{}, fmt.Errorf("crash-explore bench: durability contract violated (first failing event %d)", rep.FirstFailing)
	}
	cuts := telemetry.NewSummary()
	var replayed time.Duration
	for _, b := range rep.Branches {
		at := time.Duration(b.Event.At)
		cuts.Add(at)
		replayed += at
	}
	e := latencyEntry(fmt.Sprintf("crash-explore/trail/window=%d", exploreWindow), cuts)
	e.Counters = map[string]int64{
		"candidates":   int64(rep.Candidates),
		"total_probes": rep.TotalProbes,
	}
	if replayed > 0 {
		// Higher-is-better: lives in Rates so the gate catches a DROP in
		// exploration throughput, not a rise.
		e.Rates = map[string]float64{
			"branches_per_virtual_sec": float64(rep.Explored) / replayed.Seconds(),
		}
	}
	return e, nil
}

// gridPoint runs one sync-write configuration on a fresh rig. With a
// timeline bucket it also attaches an aggregator to every layer of the rig
// and exports the per-configuration occupancy timeline.
func gridPoint(system string, mode workload.Mode, sizeKB int, art artifacts) (benchfmt.Entry, error) {
	var agg *timeline.Aggregator
	if art.tlBucket > 0 {
		agg = timeline.New(art.tlBucket)
	}
	cfg := rig.Config{Instruments: rig.Instruments{Timeline: agg}}
	if system != "trail" {
		cfg.Baseline = sched.LOOK
	}
	r, err := rig.New(cfg)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	defer r.Close()
	env, drv := r.Env, r.Trail
	res, err := workload.RunSyncWrites(env, r.Dev(0), workload.SyncWriteConfig{
		Mode:             mode,
		WriteSize:        sizeKB * 1024,
		Processes:        1,
		WritesPerProcess: gridWrites,
		Seed:             seed,
	})
	if err != nil {
		return benchfmt.Entry{}, fmt.Errorf("bench %s/%v/%dKB: %w", system, mode, sizeKB, err)
	}
	e := latencyEntry(fmt.Sprintf("sync-write/%s/%v/%dKB", system, mode, sizeKB), res.Latency)
	if drv != nil {
		e.Counters = drv.Stats().Counters()
	}
	if agg != nil {
		agg.Finish(int64(env.Now()))
		if err := agg.WriteFile(artifactPath(art.tlBase, e.Name)); err != nil {
			return benchfmt.Entry{}, err
		}
	}
	return e, nil
}

// worldPoint drives the fixed write workload through one stack world and
// reports the DES kernel's cost for it: per-write virtual latency, kernel
// work counters, and events per virtual second.
func worldPoint(name string, art artifacts) (benchfmt.Entry, error) {
	st, err := stacks.ByName(name, "", 0)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	// The kernel's registry series cover Build too (the WAL world runs the
	// simulation there); every timeline lane starts after it.
	var in rig.Instruments
	if art.telemetryBase != "" {
		in.Registry = telemetry.NewRegistry()
		in.AttachKernel(env)
	}
	wf, _, err := st.Build(env)
	if err != nil {
		return benchfmt.Entry{}, err
	}
	if art.tlBucket > 0 {
		in.Timeline = timeline.New(art.tlBucket)
		rig.Instruments{Timeline: in.Timeline}.AttachKernel(env)
	}
	st.Observe(in)
	reg, agg := in.Registry, in.Timeline

	// The WAL world runs the simulation during Build (catalog setup), so
	// measure the bench phase as a delta from here.
	base := env.KernelStats()
	vstart := env.Now()
	lat := telemetry.NewSummary()
	var werr error
	env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < worldWrites; i++ {
			slot, version := i%st.Slots, i/st.Slots+1
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
	entry := latencyEntry("simbench/"+name, lat)
	entry.Rates = map[string]float64{
		"events_per_virtual_sec": float64(ks.EventsDispatched) / env.Now().Sub(vstart).Seconds(),
	}
	entry.Counters = map[string]int64{
		"events_dispatched": ks.EventsDispatched,
		"heap_pushes":       ks.HeapPushes,
		"heap_pops":         ks.HeapPops,
		"proc_wakeups":      ks.Wakeups,
		"probe_events":      ks.ProbeEvents,
	}
	if reg != nil {
		if err := reg.WriteFile(artifactPath(art.telemetryBase, name)); err != nil {
			return benchfmt.Entry{}, err
		}
	}
	if agg != nil {
		agg.Finish(int64(env.Now()))
		if err := agg.WriteFile(artifactPath(art.tlBase, name)); err != nil {
			return benchfmt.Entry{}, err
		}
	}
	return entry, nil
}

// artifactPath inserts the slash-mangled entry name before the base path's
// extension: "timeline.csv" + "sync-write/trail/sparse/1KB" ->
// "timeline-sync-write-trail-sparse-1KB.csv"; "sb.prom" + "wal" ->
// "sb-wal.prom".
func artifactPath(base, name string) string {
	name = strings.ReplaceAll(name, "/", "-")
	if i := strings.LastIndexByte(base, '.'); i > 0 {
		return base[:i] + "-" + name + base[i:]
	}
	return base + "-" + name
}

// latencyEntry starts a gate entry from a latency distribution.
func latencyEntry(name string, lat *telemetry.Summary) benchfmt.Entry {
	return benchfmt.Entry{
		Name:   name,
		Count:  lat.Count(),
		MeanUS: usFloat(lat.Mean()),
		P50US:  usFloat(lat.Quantile(0.50)),
		P99US:  usFloat(lat.Quantile(0.99)),
	}
}

// usFloat converts a duration to microseconds.
func usFloat(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }
