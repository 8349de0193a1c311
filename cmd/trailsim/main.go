// Command trailsim is a free-form scenario runner: it drives a configurable
// synchronous-write workload against either the Trail subsystem or the
// standard baseline and prints the latency distribution.
//
// Usage:
//
//	trailsim [-system trail|std] [-mode sparse|clustered] [-size BYTES]
//	         [-procs N] [-writes N] [-seed N]
//	trailsim -pattern uniform|sequential|zipf [-write-ratio R]   # synthetic trace
//	trailsim -replay FILE                                        # replay a trace file
//	trailsim -faults latent=3,timeout=1 [-fault-seed N]          # inject media faults
//	trailsim -faulttol [-faults SCENARIO]                        # 3-system fault comparison
//
// Overload (composable with -faults and the observability flags):
//
//	-qos                   enable the default overload policy: bounded log-queue
//	                       admission, per-class retry budgets, write-back
//	                       throttling, and scheduler queue bounds
//	-deadline D            give every request a deadline of issue time + D
//	                       (expired requests complete with ErrDeadlineExceeded
//	                       instead of occupying the disk)
//	-max-depth N           bound the disk scheduler queue at N requests
//	                       (excess sheds lowest-class-first with ErrOverload)
//	-offered-load R        open-loop mode: issue writes at R per second of
//	                       virtual time regardless of completions, tolerating
//	                       per-request shed/deadline outcomes
//	-verify                with -offered-load, read back every acknowledged
//	                       write after the run and exit nonzero if any is lost
//
// Observability (composable with every mode above):
//
//	-trace out.json        write a Chrome trace-event JSON file of the run
//	                       (load in ui.perfetto.dev or chrome://tracing) and
//	                       print the head-position prediction audit
//	-trace-cap N           trace ring capacity in events
//	-sample-interval D     sample per-device gauges every D of virtual time
//	-sample-out FILE       time-series destination (.json for JSON, else CSV)
//	-metrics FILE          write the telemetry registry at exit: kernel, driver
//	                       counters and per-disk series (.prom for Prometheus
//	                       text exposition, else JSON)
//	-spans                 print the per-request span budget: each phase's
//	                       share of end-to-end latency, per driver and kind
//	-span-out FILE         write every request's span tree as deterministic
//	                       JSON; with -trace, requests also appear in the
//	                       Chrome file as async spans tied by flow arrows
//	-explain-tail FRAC     explain the slowest FRAC of requests (0.01 = the
//	                       slowest 1%): dominant phase and root cause
//	-span-cap N            span recorder ring capacity in requests
//
// Traced runs are bit-identical in virtual time to untraced runs of the same
// seed, and trace/sample/span files are byte-identical across repeated runs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/experiments"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

func main() {
	system := flag.String("system", "trail", "storage system: trail or std")
	mode := flag.String("mode", "sparse", "arrival mode: sparse or clustered")
	size := flag.Int("size", 1024, "write size in bytes (sector multiple)")
	procs := flag.Int("procs", 1, "concurrent writer processes")
	writes := flag.Int("writes", 200, "writes per process")
	seed := flag.Uint64("seed", 1, "random seed")
	replayFile := flag.String("replay", "", "replay an I/O trace file instead of the synthetic workload")
	pattern := flag.String("pattern", "", "synthesize-and-replay with this target pattern: uniform, sequential, zipf")
	writeRatio := flag.Float64("write-ratio", 0.7, "write fraction for -pattern traces")
	faults := flag.String("faults", "", "fault scenario to inject on every drive (key=value terms, e.g. latent=3,timeout=1; see internal/fault)")
	faultSeed := flag.Uint64("fault-seed", 0, "seed for fault sampling (default: -seed)")
	faultTol := flag.Bool("faulttol", false, "run the standard/trail/raid5 fault-tolerance comparison under -faults")
	verifySnapshot := flag.Bool("verify-snapshot", false, "after the run, checkpoint the world, restore it, and verify byte-identity (status on stderr)")
	qosOn := flag.Bool("qos", false, "enable the default overload policy (admission bounds, retry budgets, throttling)")
	deadline := flag.Duration("deadline", 0, "per-request deadline: issue time + D (0 disables)")
	maxDepth := flag.Int("max-depth", 0, "bound the disk scheduler queue depth (0 = unbounded)")
	offeredLoad := flag.Float64("offered-load", 0, "open-loop write arrival rate per second of virtual time (0 = closed-loop)")
	verify := flag.Bool("verify", false, "with -offered-load, audit acknowledged-write survival and exit nonzero on loss")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	traceCap := flag.Int("trace-cap", trace.DefaultCapacity, "trace ring capacity in events")
	sampleInterval := flag.Duration("sample-interval", 0, "sample per-device gauges every interval of virtual time (0 disables)")
	sampleOut := flag.String("sample-out", "samples.csv", "time-series output file for -sample-interval (.json for JSON, else CSV)")
	metricsOut := flag.String("metrics", "", "write the unified telemetry registry at exit (.prom for Prometheus text, .json otherwise); kernel + component series, byte-deterministic")
	spans := flag.Bool("spans", false, "print the per-request span budget (critical-path latency breakdown)")
	spanOut := flag.String("span-out", "", "write every request's span tree as deterministic JSON")
	explainTail := flag.Float64("explain-tail", 0, "explain the slowest FRAC of requests (e.g. 0.01; 0 disables)")
	spanCap := flag.Int("span-cap", span.DefaultCapacity, "span recorder ring capacity in requests")
	timelineBucket := flag.Duration("timeline", 0, "aggregate per-layer state occupancy into virtual-time buckets of this width (0 disables)")
	timelineOut := flag.String("timeline-out", "timeline.csv", "timeline export file for -timeline (.json for JSON, else CSV)")
	seekDerate := flag.Int64("seek-derate", 0, "slow the log disk's actual seek arm by this many parts per million while driver predictions keep the spec curve (perturbation knob for cmd/rundiff walkthroughs)")
	benchOut := flag.String("bench-out", "", "write a single-entry benchfmt summary of the run's latency distribution (for cmd/rundiff)")
	flag.Parse()
	if strings.HasSuffix(*sampleOut, ".prom") {
		fmt.Fprintln(os.Stderr, "trailsim: -sample-out writes CSV or .json; for Prometheus text exposition use -metrics FILE.prom")
		os.Exit(2)
	}
	if *faultSeed == 0 {
		*faultSeed = *seed
	}

	obs := newObserver(*traceOut, *traceCap, *sampleOut, *sampleInterval)
	if *spans || *spanOut != "" || *explainTail > 0 {
		obs.setSpans(*spanCap, *spans, *spanOut, *explainTail)
	}
	if *metricsOut != "" {
		obs.setMetrics(*metricsOut)
	}
	if *timelineBucket > 0 {
		obs.setTimeline(*timelineBucket, *timelineOut)
	}
	obs.benchOut = *benchOut
	pol := qosPolicy(*qosOn, *deadline, *maxDepth)
	var err error
	switch {
	case *faultTol:
		err = runFaultTol(*faults, *writes, *faultSeed)
	case *replayFile != "":
		err = runReplayFile(*system, *replayFile, pol, *seekDerate, obs)
	case *pattern != "":
		err = runPattern(*system, *pattern, *writes, *size, *writeRatio, *seed, pol, *seekDerate, obs)
	case *offeredLoad > 0:
		err = runOpenLoop(*system, *size, *writes, *offeredLoad, *seed, *faults, *faultSeed, pol, *seekDerate, *verify, obs)
	default:
		err = run(*system, *mode, *size, *procs, *writes, *seed, *faults, *faultSeed, pol, *seekDerate, *verifySnapshot, obs)
	}
	if err == nil {
		err = obs.finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trailsim:", err)
		os.Exit(1)
	}
}

// observer bundles the run's optional telemetry: the event tracer (Chrome
// trace export plus prediction audit) and the periodic gauge sampler.
type observer struct {
	traceOut string
	tr       *trace.Tracer

	sampleOut string
	interval  time.Duration
	sampler   *trace.Sampler

	// Span attribution (nil unless a -spans/-span-out/-explain-tail flag
	// asked for it).
	rec      *span.Recorder
	spans    bool
	spanOut  string
	tailFrac float64
	// Unified telemetry registry (nil unless -metrics asked for it); the
	// kernel and components register into it at attach time.
	metricsOut string
	reg        *telemetry.Registry

	// Virtual-time utilization timeline (nil unless -timeline asked for
	// it); finish() closes the open intervals at the environment's final
	// clock and exports.
	timelineOut string
	agg         *timeline.Aggregator
	env         *sim.Env

	// Single-entry benchfmt summary ("" disables); run() deposits the
	// entry, finish() writes the file.
	benchOut   string
	benchEntry *benchfmt.Entry
}

func newObserver(traceOut string, traceCap int, sampleOut string, interval time.Duration) *observer {
	o := &observer{traceOut: traceOut, sampleOut: sampleOut, interval: interval}
	if traceOut != "" {
		o.tr = trace.New(traceCap)
	}
	return o
}

// setSpans installs the span recorder before the run starts. Installing
// through a setter (rather than poking the fields) is the nilguard
// invariant: instrumentation handles never change once the clock moves.
func (o *observer) setSpans(capacity int, print bool, out string, tailFrac float64) {
	o.rec = span.NewRecorder(capacity)
	o.spans = print
	o.spanOut = out
	o.tailFrac = tailFrac
}

// setMetrics installs the unified telemetry registry before the run starts
// (same setter discipline as setSpans).
func (o *observer) setMetrics(out string) {
	o.metricsOut = out
	o.reg = telemetry.NewRegistry()
}

// setTimeline installs the utilization-timeline aggregator before the run
// starts (same setter discipline as setSpans).
func (o *observer) setTimeline(bucket time.Duration, out string) {
	o.timelineOut = out
	o.agg = timeline.New(bucket)
}

// instruments is the bundle the rig attaches to the kernel and every layer.
func (o *observer) instruments() rig.Instruments {
	return rig.Instruments{Tracer: o.tr, Recorder: o.rec, Timeline: o.agg, Registry: o.reg}
}

// attach wires what the bundle does not carry into a freshly built rig: the
// clock finish() closes the timeline at, and a daemon process (which never
// keeps the simulation alive) sampling the gauges.
func (o *observer) attach(r *rig.Rig) {
	env, drv := r.Env, r.Trail
	o.env = env
	if o.interval <= 0 {
		return
	}
	switch {
	case drv != nil:
		o.sampler = trace.NewSampler(
			"log_queue", "data_queue", "staged_bytes", "outstanding_records", "log_cyl")
		env.GoDaemon("telemetry-sampler", func(p *sim.Proc) {
			for {
				cyl, _ := drv.LogDisk(0).ArmPosition()
				o.sampler.Record(int64(p.Now()),
					float64(drv.LogQueueLen()),
					float64(drv.DataQueue(0).Depth()),
					float64(drv.StagedBytes()),
					float64(drv.OutstandingRecords()),
					float64(cyl))
				p.Sleep(o.interval)
			}
		})
	default:
		std := r.Std[0]
		o.sampler = trace.NewSampler("queue_depth", "arm_cyl")
		env.GoDaemon("telemetry-sampler", func(p *sim.Proc) {
			for {
				cyl, _ := std.Queue().Disk().ArmPosition()
				o.sampler.Record(int64(p.Now()),
					float64(std.Queue().Depth()),
					float64(cyl))
				p.Sleep(o.interval)
			}
		})
	}
}

// finish writes the collected telemetry files and prints the audit.
func (o *observer) finish() error {
	if o.tr != nil {
		write := o.tr.WriteChrome
		if o.rec != nil {
			// Merge the request spans into the same Chrome file: kernel
			// events and per-request async spans share the timeline.
			write = func(w io.Writer) error {
				cw := trace.NewChromeWriter(w)
				o.tr.EmitChrome(cw)
				o.rec.EmitChrome(cw)
				return cw.Close()
			}
		}
		if err := writeFile(o.traceOut, write); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s (%d dropped)\n", o.tr.Len(), o.traceOut, o.tr.Dropped())
		if rep := o.tr.Audit(); rep.Predictions > 0 || rep.Unaudited > 0 {
			fmt.Print(rep)
		}
	}
	if o.sampler != nil {
		write := o.sampler.WriteCSV
		if strings.HasSuffix(o.sampleOut, ".json") {
			write = o.sampler.WriteJSON
		}
		if err := writeFile(o.sampleOut, write); err != nil {
			return err
		}
		fmt.Printf("samples: %d rows -> %s\n", o.sampler.Rows(), o.sampleOut)
	}
	if o.reg != nil {
		if err := o.reg.WriteFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics: %d series -> %s\n", o.reg.Len(), o.metricsOut)
	}
	if o.agg != nil {
		o.agg.Finish(int64(o.env.Now()))
		if err := o.agg.WriteFile(o.timelineOut); err != nil {
			return err
		}
		fmt.Printf("timeline: bucket %v -> %s\n", time.Duration(o.agg.BucketNS()), o.timelineOut)
	}
	if o.benchOut != "" && o.benchEntry != nil {
		bf := &benchfmt.File{Experiments: []benchfmt.Entry{*o.benchEntry}}
		if err := bf.WriteFile(o.benchOut); err != nil {
			return err
		}
		fmt.Printf("bench summary -> %s\n", o.benchOut)
	}
	if o.rec != nil {
		reqs := o.rec.Requests()
		if o.spans {
			fmt.Print(span.Analyze(reqs))
		}
		if o.tailFrac > 0 {
			fmt.Print(span.ExplainTail(reqs, o.tailFrac))
		}
		if o.spanOut != "" {
			if err := writeFile(o.spanOut, o.rec.WriteJSON); err != nil {
				return err
			}
			fmt.Printf("spans: %d requests -> %s (%d dropped)\n", len(reqs), o.spanOut, o.rec.Dropped())
		}
	}
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFaultTol runs the three-system comparison under the scenario (the
// ISSUE's default when none is given).
func runFaultTol(scenario string, writes int, seed uint64) error {
	if scenario == "" {
		scenario = "latent=3,timeout=1"
	}
	cfg, err := fault.ParseScenario(scenario)
	if err != nil {
		return err
	}
	res, err := experiments.FaultTolerance(writes, seed, cfg)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
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
// the observer attached, optionally with the fault scenario on every drive
// and the overload policy on the driver. Every stateful component is also
// registered in a checkpointable World (for -verify-snapshot).
func buildRig(system, scenario string, faultSeed uint64, pol *qos.Policy, seekDeratePPM int64, obs *observer) (*rig.Rig, *crashexplore.World, error) {
	cfg := rig.Config{FaultSeed: faultSeed, Instruments: obs.instruments()}
	if scenario != "" {
		fcfg, err := fault.ParseScenario(scenario)
		if err != nil {
			return nil, nil, err
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
		return nil, nil, fmt.Errorf("unknown system %q", system)
	}
	r, err := rig.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	w := crashexplore.NewWorld(r.Env)
	if r.Trail != nil {
		w.Register("disk.log", r.LogDisk)
		w.Register("disk.data0", r.DataDisks[0])
		w.Register("trail", r.Trail)
	} else {
		if pol != nil {
			r.Std[0].SetQoS(pol)
		}
		w.Register("disk.0", r.DataDisks[0])
		w.Register("stddisk", r.Std[0])
	}
	for i, pl := range r.Plans {
		w.Register(fmt.Sprintf("fault.%d", i), pl)
	}
	obs.attach(r)
	return r, w, nil
}

// verifyWorldSnapshot checkpoints the (now quiescent) world, restores the
// checkpoint in place, and re-snapshots: the restored world must be
// byte-identical. Status goes to stderr so stdout stays byte-comparable
// across runs with and without the flag.
func verifyWorldSnapshot(w *crashexplore.World) error {
	s1 := w.Snapshot()
	if err := w.Restore(s1); err != nil {
		return fmt.Errorf("verify-snapshot: restore: %w", err)
	}
	s2 := w.Snapshot()
	if !bytes.Equal(s1, s2) {
		return fmt.Errorf("verify-snapshot: world differs after restoring its own checkpoint")
	}
	fmt.Fprintf(os.Stderr, "verify-snapshot: %d-byte world checkpoint, digest %016x, restored world byte-identical\n",
		len(s1), snapshot.Digest(s1))
	return nil
}

// runReplayFile replays a trace file against the chosen system.
func runReplayFile(system, path string, pol *qos.Policy, seekDerate int64, obs *observer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ParseTrace(f)
	if err != nil {
		return err
	}
	r, _, err := buildRig(system, "", 0, pol, seekDerate, obs)
	if err != nil {
		return err
	}
	defer r.Close()
	res, err := workload.Replay(r.Env, r.Dev(0), tr)
	if err != nil {
		return err
	}
	printReplay(system, path, res)
	return nil
}

// runPattern synthesizes a trace with the named pattern and replays it.
func runPattern(system, pattern string, ops, size int, writeRatio float64, seed uint64, pol *qos.Policy, seekDerate int64, obs *observer) error {
	r, _, err := buildRig(system, "", 0, pol, seekDerate, obs)
	if err != nil {
		return err
	}
	defer r.Close()
	env, dev := r.Env, r.Dev(0)
	var pat workload.Pattern
	switch pattern {
	case "uniform":
		pat = workload.UniformPattern{}
	case "sequential":
		pat = &workload.SequentialPattern{}
	case "zipf":
		pat = workload.NewZipf(10000, 0.99)
	default:
		return fmt.Errorf("unknown pattern %q", pattern)
	}
	tr := workload.SynthesizeTrace(ops, pat, writeRatio, size/512, 3*time.Millisecond, dev.Sectors(), seed)
	res, err := workload.Replay(env, dev, tr)
	if err != nil {
		return err
	}
	printReplay(system, pat.String(), res)
	return nil
}

func printReplay(system, source string, res *workload.ReplayResult) {
	fmt.Printf("%s / trace %s\n", system, source)
	fmt.Printf("reads:  %v\n", res.Reads)
	fmt.Printf("writes: %v\n", res.Writes)
	fmt.Printf("elapsed %v, %d ops issued late\n", res.Elapsed, res.Lagged)
}

func run(system, mode string, size, procs, writes int, seed uint64, scenario string, faultSeed uint64, pol *qos.Policy, seekDerate int64, verifySnap bool, obs *observer) error {
	r, world, err := buildRig(system, scenario, faultSeed, pol, seekDerate, obs)
	if err != nil {
		return err
	}
	defer r.Close()
	env, dev, drv := r.Env, r.Dev(0), r.Trail

	m := workload.Sparse
	if mode == "clustered" {
		m = workload.Clustered
	} else if mode != "sparse" {
		return fmt.Errorf("unknown mode %q", mode)
	}

	res, err := workload.RunSyncWrites(env, dev, workload.SyncWriteConfig{
		Mode:             m,
		WriteSize:        size,
		Processes:        procs,
		WritesPerProcess: writes,
		Seed:             seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s / %s / %dB x %d writes x %d procs\n", system, mode, size, writes, procs)
	fmt.Printf("latency: %v\n", res.Latency)
	obs.benchEntry = &benchfmt.Entry{
		Name:   fmt.Sprintf("sync-write/%s/%s/%dB", system, mode, size),
		Count:  res.Latency.Count(),
		MeanUS: float64(res.Latency.Mean().Nanoseconds()) / 1000,
		P50US:  float64(res.Latency.Quantile(0.50).Nanoseconds()) / 1000,
		P99US:  float64(res.Latency.Quantile(0.99).Nanoseconds()) / 1000,
	}
	fmt.Printf("elapsed: %v  throughput: %.0f writes/s\n",
		res.Elapsed, float64(res.Latency.Count())/res.Elapsed.Seconds())
	if drv != nil {
		s := drv.Stats()
		fmt.Printf("trail: %d records for %d writes (batching %.2fx), %d repositions, avg track util %.1f%%\n",
			s.Records, s.Writes, float64(s.Writes)/float64(s.Records), s.Repositions, 100*s.AvgTrackUtilization())
	}
	printCounters(r, scenario)
	if verifySnap {
		return verifyWorldSnapshot(world)
	}
	return nil
}

// printCounters prints the Trail driver's counter line and, under a fault
// scenario, every plan's trigger counts merged with the driver's own
// fault-handling counters.
func printCounters(r *rig.Rig, scenario string) {
	if r.Trail != nil {
		fmt.Printf("counters: %s\n", r.Trail.Stats().Counters())
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
	fmt.Printf("faults (%s):\n%s\n", scenario, agg)
}

// ackedWrite is one acknowledged write retained for the -verify audit.
type ackedWrite struct {
	sectors int
	data    []byte
	at      sim.Time
}

// runOpenLoop issues writes at a fixed arrival rate regardless of
// completions — the overload regime — tolerating per-request shed and
// deadline outcomes. With verify, every acknowledged write is read back
// after the run: an acknowledged write that cannot be read back intact is
// data loss and fails the run.
func runOpenLoop(system string, size, writes int, rate float64, seed uint64, scenario string, faultSeed uint64, pol *qos.Policy, seekDerate int64, verify bool, obs *observer) error {
	r, _, err := buildRig(system, scenario, faultSeed, pol, seekDerate, obs)
	if err != nil {
		return err
	}
	defer r.Close()
	env, dev := r.Env, r.Dev(0)

	// survivors holds, per target, every acknowledged write: concurrent
	// acked writes to one slot race in the device, so readback must match
	// one of them (the newest acknowledgement is listed first).
	var survivors map[int64][]ackedWrite
	cfg := workload.OpenLoopConfig{
		Interarrival: time.Duration(float64(time.Second) / rate),
		Requests:     writes,
		WriteSize:    size,
		Seed:         seed,
	}
	if verify {
		survivors = make(map[int64][]ackedWrite)
		cfg.OnAck = func(lba int64, sectors int, data []byte, at sim.Time) {
			survivors[lba] = append([]ackedWrite{{sectors: sectors, data: data, at: at}}, survivors[lba]...)
		}
	}
	res, err := workload.RunOpenLoopWrites(env, dev, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s / open-loop / %dB x %d writes at %.0f/s\n", system, size, writes, rate)
	fmt.Printf("acked %d  shed %d  expired %d  other-errors %d\n",
		res.Acked, res.Shed, res.Expired, res.OtherErrors)
	fmt.Printf("acked latency: %v\n", res.Latency)
	fmt.Printf("elapsed: %v\n", res.Elapsed)
	printCounters(r, scenario)
	if !verify {
		return nil
	}
	lbas := make([]int64, 0, len(survivors))
	for lba := range survivors {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	var lost int
	env.Go("verify", func(p *sim.Proc) {
		for _, lba := range lbas {
			cands := survivors[lba]
			got, rerr := dev.Read(p, lba, cands[0].sectors)
			if rerr != nil {
				fmt.Printf("verify: lba %d: read failed: %v\n", lba, rerr)
				lost++
				continue
			}
			ok := false
			for _, c := range cands {
				if bytes.Equal(got, c.data) {
					ok = true
					break
				}
			}
			if !ok {
				fmt.Printf("verify: lba %d: acknowledged data lost\n", lba)
				lost++
			}
		}
	})
	env.Run()
	if lost > 0 {
		return fmt.Errorf("verify: %d of %d acknowledged writes lost", lost, len(lbas))
	}
	fmt.Printf("verify: all %d acknowledged targets intact\n", len(lbas))
	return nil
}
