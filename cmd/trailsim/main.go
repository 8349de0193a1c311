// Command trailsim is a free-form scenario runner: it drives a configurable
// synchronous-write workload against either the Trail subsystem or the
// standard baseline and prints the latency distribution.
//
// Usage:
//
//	trailsim [-size BYTES] [-procs N] [-writes N] [-seed N] [-faults SCENARIO]
//	trailsim -offered-load R [-size BYTES] [-writes N] [-seed N] [-faults SCENARIO] [-verify]
//	trailsim -pattern uniform|sequential|zipf [-size BYTES] [-writes N] [-seed N]
//	trailsim -replay FILE
//
// Each line is one mode and the flags it reads: the paper's sparse
// closed-loop writers (§5.1; each waits 5 ms after a completion); an open
// loop of R writes per virtual second whatever the completions, tolerating
// shed and expired requests (-verify reads back every acknowledged write
// and fails on a loss); a synthetic trace of 70% writes; and a trace file.
// A flag outside its mode's list exits 1. Every mode also reads -system and
// the overload and observability flags:
//
//	-qos                   enable the default overload policy: bounded log-queue
//	                       admission, per-class retry budgets, write-back
//	                       throttling, and scheduler queue bounds
//	-deadline D            give every request a deadline of issue time + D
//	                       (it then completes with ErrDeadlineExceeded)
//	-max-depth N           bound the disk scheduler queue at N requests
//	                       (excess sheds lowest-class-first with ErrOverload)
//	-out DIR               write the run's artefacts into DIR, the files
//	                       cmd/rundiff reads: trace.json (Chrome trace events,
//	                       for ui.perfetto.dev), metrics.prom, timeline.csv
//	                       (5 ms buckets), bench.json and spans.json
//	-seek-derate PPM       slow the log disk's seek arm by PPM parts per million
//	                       while the driver keeps predicting the spec curve
//
// Observed runs are bit-identical in virtual time to unobserved runs of the
// same seed, and every artefact is byte-identical across repeated runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

// timelineBucket is the width of timeline.csv's virtual-time buckets.
const timelineBucket = 5 * time.Millisecond

// everyMode lists the flags every mode reads, and modeFlags the further
// flags each mode reads. A flag set outside its mode's lists is refused.
const everyMode = "system qos deadline max-depth seek-derate out"

var modeFlags = map[string]string{
	"sync":         "size procs writes seed faults",
	"offered-load": "offered-load size writes seed faults verify",
	"pattern":      "pattern size writes seed",
	"replay":       "replay",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the chosen scenario and returns the exit status.
// Errors go to stderr; everything else goes to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trailsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "trail", "storage system: trail or std")
	size := fs.Int("size", 1024, "write size in bytes (sector multiple)")
	procs := fs.Int("procs", 1, "concurrent writer processes")
	writes := fs.Int("writes", 200, "writes per process")
	seed := fs.Uint64("seed", 1, "random seed")
	replayFile := fs.String("replay", "", "replay an I/O trace file instead of the synthetic workload")
	pattern := fs.String("pattern", "", "synthesize-and-replay with this target pattern: uniform, sequential, zipf")
	faults := fs.String("faults", "", "fault scenario to inject on every drive (key=value terms, e.g. latent=3,timeout=1; see internal/fault)")
	qosOn := fs.Bool("qos", false, "enable the default overload policy (admission bounds, retry budgets, throttling)")
	deadline := fs.Duration("deadline", 0, "per-request deadline: issue time + D (0 disables)")
	maxDepth := fs.Int("max-depth", 0, "bound the disk scheduler queue depth (0 = unbounded)")
	offeredLoad := fs.Float64("offered-load", 0, "open-loop write arrival rate per second of virtual time (0 = closed-loop)")
	verify := fs.Bool("verify", false, "with -offered-load, audit acknowledged-write survival and exit nonzero on loss")
	seekDerate := fs.Int64("seek-derate", 0, "slow the log disk's actual seek arm by this many parts per million while driver predictions keep the spec curve (perturbation knob for cmd/rundiff walkthroughs)")
	out := fs.String("out", "", "write the run's artefact set (trace.json, metrics.prom, timeline.csv, bench.json, spans.json) into this directory")
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	fail := func(err error) int {
		fmt.Fprintln(stderr, "trailsim:", err)
		return 1
	}
	mode := "sync"
	switch {
	case *replayFile != "":
		mode = "replay"
	case *pattern != "":
		mode = "pattern"
	case *offeredLoad > 0:
		mode = "offered-load"
	}
	reads := strings.Fields(everyMode + " " + modeFlags[mode])
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(reads, f.Name) {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fail(fmt.Errorf("%s: not read by the %s mode, which reads -%s",
			strings.Join(ignored, " "), mode, strings.Join(reads, " -")))
	}
	var in rig.Instruments
	if *out != "" {
		in = rig.NewInstruments(timelineBucket)
	}
	r, err := buildRig(*system, *faults, *seed, qosPolicy(*qosOn, *deadline, *maxDepth), *seekDerate, in)
	if err != nil {
		return fail(err)
	}
	var entries []benchfmt.Entry
	switch mode {
	case "replay":
		entries, err = runReplayFile(stdout, r, *system, *replayFile)
	case "pattern":
		entries, err = runPattern(stdout, r, *system, *pattern, *writes, *size, *seed)
	case "offered-load":
		entries, err = runOpenLoop(stdout, r, *system, *size, *writes, *offeredLoad, *seed, *faults, *verify)
	default:
		entries, err = runSync(stdout, r, *system, *size, *procs, *writes, *seed, *faults)
	}
	r.Close()
	if err == nil && *out != "" {
		err = in.WriteDir(*out, r.Env.Now(), entries, stdout)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// qosPolicy assembles the run's overload policy from the flags; nil when no
// QoS flag was given (the historical unbounded behaviour).
func qosPolicy(on bool, deadline time.Duration, maxDepth int) *qos.Policy {
	if !on && deadline == 0 && maxDepth == 0 {
		return nil
	}
	pol := &qos.Policy{}
	if on {
		pol = qos.Default()
	}
	if deadline > 0 {
		pol.DefaultDeadline = deadline
	}
	if maxDepth > 0 {
		pol.MaxDepth = maxDepth
	}
	return pol
}

// buildRig assembles the chosen storage system on a fresh environment with
// the instruments attached, optionally with the fault scenario on every drive
// (its plans sampled from seed) and the overload policy on the driver.
func buildRig(system, scenario string, seed uint64, pol *qos.Policy, seekDeratePPM int64, in rig.Instruments) (*rig.Rig, error) {
	cfg := rig.Config{FaultSeed: seed, Instruments: in}
	if scenario != "" {
		fcfg, err := fault.ParseScenario(scenario)
		if err != nil {
			return nil, err
		}
		cfg.Faults = &fcfg
	}
	// The derate goes on the drive the system's synchronous writes wait for.
	switch system {
	case "trail":
		lp := disk.ST41601N()
		lp.SeekDeratePPM = seekDeratePPM
		cfg.LogDisk = &lp
		cfg.Trail = trail.Config{QoS: pol}
	case "std":
		dp := disk.WDCaviar()
		dp.SeekDeratePPM = seekDeratePPM
		cfg.DataDisk = &dp
		cfg.Baseline = sched.LOOK
	default:
		return nil, fmt.Errorf("unknown system %q", system)
	}
	r, err := rig.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.Trail == nil && pol != nil {
		r.Std[0].SetQoS(pol)
	}
	return r, nil
}

// runReplayFile replays a trace file against the rig.
func runReplayFile(w io.Writer, r *rig.Rig, system, path string) ([]benchfmt.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := workload.ParseTrace(f)
	if err != nil {
		return nil, err
	}
	return replay(w, r, system, path, tr)
}

// runPattern synthesizes a trace with the named pattern and replays it.
func runPattern(w io.Writer, r *rig.Rig, system, pattern string, ops, size int, seed uint64) ([]benchfmt.Entry, error) {
	if size <= 0 || size%geom.SectorSize != 0 {
		return nil, fmt.Errorf("write size %d not a positive sector multiple", size)
	}
	var pat workload.Pattern
	switch pattern {
	case "uniform":
		pat = workload.UniformPattern{}
	case "sequential":
		pat = &workload.SequentialPattern{}
	case "zipf":
		pat = workload.NewZipf()
	default:
		return nil, fmt.Errorf("unknown pattern %q", pattern)
	}
	tr := workload.SynthesizeTrace(ops, pat, size/geom.SectorSize, r.Dev(0).Sectors(), seed)
	return replay(w, r, system, pat.String(), tr)
}

// replay replays tr against the rig and prints its read and write latency,
// returning an entry for each that has samples.
func replay(w io.Writer, r *rig.Rig, system, source string, tr *workload.Trace) ([]benchfmt.Entry, error) {
	res, err := workload.Run(r.Env, r.Dev(0), tr.Load())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s / trace %s\n", system, source)
	fmt.Fprintf(w, "reads:  %v\n", res.Reads)
	fmt.Fprintf(w, "writes: %v\n", res.Writes)
	fmt.Fprintf(w, "elapsed %v, %d ops issued late\n", res.Elapsed, res.Lagged)
	var entries []benchfmt.Entry
	if res.Writes.Count() > 0 {
		entries = append(entries, benchfmt.Latency("replay/"+system+"/write", res.Writes))
	}
	if res.Reads.Count() > 0 {
		entries = append(entries, benchfmt.Latency("replay/"+system+"/read", res.Reads))
	}
	return entries, nil
}

// runSync runs the closed-loop synchronous-write workload.
func runSync(w io.Writer, r *rig.Rig, system string, size, procs, writes int, seed uint64, scenario string) ([]benchfmt.Entry, error) {
	c := workload.SyncWriteConfig{
		Mode:             workload.Sparse,
		WriteSize:        size,
		Processes:        procs,
		WritesPerProcess: writes,
		Seed:             seed,
	}.WithDefaults()
	load, err := workload.SyncWrites(c, r.Dev(0).Sectors())
	if err != nil {
		return nil, err
	}
	res, err := workload.Run(r.Env, r.Dev(0), load)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s / %s / %dB x %d writes x %d procs\n", system, c.Mode, c.WriteSize, c.WritesPerProcess, c.Processes)
	fmt.Fprintf(w, "latency: %v\n", res.Writes)
	fmt.Fprintf(w, "elapsed: %v  throughput: %.0f writes/s\n",
		res.Elapsed, float64(res.Writes.Count())/res.Elapsed.Seconds())
	if drv := r.Trail; drv != nil {
		s := drv.Stats()
		fmt.Fprintf(w, "trail: %d records for %d writes (batching %.2fx), %d repositions, avg track util %.1f%%\n",
			s.Records, s.Writes, float64(s.Writes)/float64(s.Records), s.Repositions, 100*s.AvgTrackUtilization())
	}
	printCounters(w, r, scenario)
	return []benchfmt.Entry{benchfmt.Latency(fmt.Sprintf("sync-write/%s/%s/%dB", system, c.Mode, c.WriteSize), res.Writes)}, nil
}

// printCounters prints the Trail driver's counter line and, under a fault
// scenario, every plan's trigger counts merged with the driver's own
// fault-handling counters.
func printCounters(w io.Writer, r *rig.Rig, scenario string) {
	if r.Trail != nil {
		fmt.Fprintf(w, "counters: %s\n", r.Trail.Stats().Counters())
	}
	if len(r.Plans) == 0 {
		return
	}
	agg := telemetry.Counts{}
	for _, pl := range r.Plans {
		agg.Merge(pl.Stats().Counters())
	}
	if r.Trail != nil {
		agg.Merge(r.Trail.Stats().FaultCounters())
	}
	fmt.Fprintf(w, "faults (%s):\n%s\n", scenario, agg)
}

// runOpenLoop issues writes at a fixed arrival rate regardless of
// completions — the overload regime — tolerating per-request shed and
// deadline outcomes. With verify, every acknowledged write is read back
// after the run (workload.Ledger): an acknowledged target that reads back
// other bytes or fails to read is data loss and fails the run.
func runOpenLoop(w io.Writer, r *rig.Rig, system string, size, writes int, rate float64, seed uint64, scenario string, verify bool) ([]benchfmt.Entry, error) {
	env, dev := r.Env, r.Dev(0)
	cfg := workload.OpenLoopConfig{
		Interarrival: time.Duration(float64(time.Second) / rate),
		Requests:     writes,
		WriteSize:    size,
		Seed:         seed,
	}.WithDefaults()
	load, err := workload.OpenLoop(cfg, dev.Sectors())
	if err != nil {
		return nil, err
	}
	var ledger workload.Ledger
	if verify {
		load.OnAck = ledger.Record
	}
	res, err := workload.Run(env, dev, load)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s / open-loop / %dB x %d writes at %.0f/s\n", system, cfg.WriteSize, cfg.Requests, rate)
	fmt.Fprintf(w, "acked %d  shed %d  expired %d  other-errors %d\n",
		res.Writes.Count(), res.Shed, res.Expired, res.Failed)
	fmt.Fprintf(w, "acked latency: %v\n", res.Writes)
	fmt.Fprintf(w, "elapsed: %v\n", res.Elapsed)
	printCounters(w, r, scenario)
	e := benchfmt.Latency(fmt.Sprintf("open-loop/%s/%dB", system, cfg.WriteSize), res.Writes)
	e.Counters = map[string]int64{"acked": res.Writes.Count(), "shed": res.Shed, "expired": res.Expired, "other_errors": res.Failed}
	if !verify {
		return []benchfmt.Entry{e}, nil
	}
	var checks []workload.Check
	env.Go("verify", func(p *sim.Proc) { checks = ledger.ReadBack(p, dev) })
	env.Run()
	intact := 0
	for _, c := range checks {
		switch c.Outcome {
		case workload.Intact:
			intact++
		case workload.ReadFailed:
			fmt.Fprintf(w, "verify: lba %d: read failed: %v\n", c.LBA, c.Err)
		case workload.OtherBytes:
			fmt.Fprintf(w, "verify: lba %d: acknowledged data lost\n", c.LBA)
		}
	}
	// A target the read-back never reached is lost too.
	if n := ledger.Targets(); intact < n {
		return nil, fmt.Errorf("verify: %d of %d acknowledged writes lost", n-intact, n)
	}
	fmt.Fprintf(w, "verify: all %d acknowledged targets intact\n", intact)
	return []benchfmt.Entry{e}, nil
}
