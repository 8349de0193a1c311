// Command bench is the repository's benchmark: four long workloads measured
// on two clocks, with a per-layer ladder of counters and isolated probes.
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds N] [-trace] [-selfcheck]
//
// host_* numbers are what the simulator costs to run (wall clock, CPU and
// allocations of this process); virt_* numbers are what the modelled Trail
// hardware would take, and repeat exactly for a seed. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"
)

// benchSpec mirrors BENCHMARK.json, which owns every name, unit and bound;
// the harness computes values and looks the rest up there.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []namedWhy   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metrics returns every metric of the spec, end-to-end first.
func (s *benchSpec) metrics() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

// loadSpec finds BENCHMARK.json from the repository root or from bench/ and
// returns it with the root's path.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var s benchSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, root, nil
	}
	return nil, "", errors.New("BENCHMARK.json not found in . or ..")
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// audit checks the spec against the harness: same workloads, well-formed
// names used once.
func (s *benchSpec) audit() error {
	seen := make(map[string]bool)
	check := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: malformed name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return err
		}
		if findWorkload(w.Name) == nil {
			return fmt.Errorf("BENCHMARK.json: workload %q is not one the harness runs", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json lists %d workloads, the harness runs %d", len(s.Workloads), len(workloads))
	}
	for _, m := range s.metrics() {
		if err := check(m.Name); err != nil {
			return err
		}
	}
	return nil
}

func findWorkload(name string) *scenario {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed  uint64
	trace bool
	// reps is the number of measured reps and div divides every op and
	// iteration count (1 in the benchmark, 50 in the smoke test).
	reps, div int
	// budget, when positive, is the number of seconds after which a run
	// stops at minReps reps: the pipeline caps the benchmark's total time.
	budget      float64
	outDir, exe string
}

// calibrationGap is how long the machine-speed kernels run before and after
// every measured rep.
const calibrationGap = 300 * time.Millisecond

// minReps is the least number of measured reps; a traced run measures that
// many bare reps before the traced rep and the probes.
const minReps = 3

// repsFor turns -seconds into a rep count, at a nominal 5 s a rep. The count
// follows from the argument alone, never from the clock, so two commits given
// the same arguments do the same work and take medians over the same inputs.
func repsFor(seconds int) int {
	if n := seconds / 5; n > minReps {
		return n
	}
	return minReps
}

// outcome is everything one workload's run produced.
type outcome struct {
	vals              map[string]float64
	attempted, failed int64
	reps              int
	samples           int
	problems          []string
}

// repSeed derives a rep's inputs from the run's seed. Every measured rep gets
// inputs of its own, so a run's medians are taken over several input sets and
// vary less from one run seed to the next than any single input set does. The
// warm-up and the traced rep run on rep 1's inputs: two reps of one
// seed are what virt_repeat_exact and instr.virt_digest_equal compare.
func repSeed(seed uint64, inputs int) uint64 { return seed<<8 + uint64(inputs) }

// oneRep runs the workload once on the inputs of rep number inputs.
func oneRep(sc *scenario, cfg runConfig, index, inputs int, spans *spanLog, obs instruments, profile *os.File) (*rep, error) {
	runtime.GC()
	r := &rep{
		workload: sc.name, index: index, seed: repSeed(cfg.seed, inputs), div: cfg.div, obs: obs, profile: profile, spans: spans,
		virt: make(map[string]float64), host: make(map[string]float64),
	}
	if r.obs == (instruments{}) && sc.observed {
		r.obs = newInstruments(false)
	}
	r.root = spans.begin(0, sc.name, index, "rep")
	r.parent = spans.begin(r.root, sc.name, index, "setup")
	r.start = time.Now()
	err := sc.run(r)
	spans.end(r.root)
	if err != nil {
		return nil, fmt.Errorf("%s rep %d: %w", sc.name, index, err)
	}
	return r, nil
}

// runWorkload follows the run protocol: one warm-up rep, of which only the
// determinism digest is kept, then cfg.reps measured reps with the machine's
// speed taken around each, then, in a traced run, one instrumented rep and
// the probe ladder.
func runWorkload(sc *scenario, cfg runConfig) (*outcome, error) {
	spans := newSpanLog()
	warm, err := oneRep(sc, cfg, 0, 1, spans, instruments{}, nil)
	if err != nil {
		return nil, err
	}
	var reps []*rep
	begin := time.Now()
	before := calibrate(calibrationGap)
	for len(reps) < cfg.reps {
		if spent := time.Since(begin).Seconds(); len(reps) >= minReps && cfg.budget > 0 && spent > cfg.budget {
			fmt.Fprintf(os.Stderr, "bench: warning: %s stopped after %d of %d reps: %.0f s spent\n", sc.name, len(reps), cfg.reps, spent)
			break
		}
		r, err := oneRep(sc, cfg, len(reps)+1, len(reps)+1, spans, instruments{}, nil)
		if err != nil {
			return nil, err
		}
		after := calibrate(calibrationGap)
		r.speed = machineSpeed(append(before, after...))
		before = after
		reps = append(reps, r)
	}

	out := &outcome{vals: make(map[string]float64), reps: len(reps), samples: reps[0].samples}
	col := func(f func(r *rep) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	perOp := func(f func(r *rep) float64) float64 {
		return col(func(r *rep) float64 { return ratio(f(r), float64(r.ops)) })
	}
	v := out.vals
	// Host times are in seconds on the reference machine.
	v["host_speed"] = col(func(r *rep) float64 { return r.speed })
	v["setup_s"] = col(func(r *rep) float64 { return r.setupS * r.speed })
	v["host_ops_per_sec"] = col(func(r *rep) float64 { return ratio(float64(r.ops), r.cost.wallS*r.speed) })
	v["host_cpu_us_per_op"] = perOp(func(r *rep) float64 { return r.cost.cpuS * r.speed * 1e6 })
	v["host_allocs_per_op"] = perOp(func(r *rep) float64 { return float64(r.cost.mallocs) })
	v["host_bytes_per_op"] = perOp(func(r *rep) float64 { return float64(r.cost.bytes) })
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["host_peak_mem_mb"] = float64(ms.Sys) / (1 << 20)
	for k := range reps[0].virt {
		v[k] = col(func(r *rep) float64 { return r.virt[k] })
	}
	for k := range reps[0].host {
		v[k] = col(func(r *rep) float64 { return r.host[k] * r.speed })
	}
	for _, r := range reps {
		out.attempted += r.ops + r.failed
		out.failed += r.failed
	}
	v["failed_ops_share"] = ratio(float64(out.failed), float64(out.attempted))
	v["acked_ops_share"] = 1 - v["failed_ops_share"]
	v["virt_repeat_exact"] = 0
	if warm.sum() == reps[0].sum() {
		v["virt_repeat_exact"] = 1
	}
	if !cfg.trace {
		return out, nil
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(cfg.outDir, sc.name+".cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	obs := newInstruments(true)
	traced, err := oneRep(sc, cfg, len(reps)+1, 1, spans, obs, prof)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	traced.speed = machineSpeed(append(before, calibrate(calibrationGap)...))
	bare := col(func(r *rep) float64 { return r.cost.wallS * r.speed })
	v["instr.overhead_pct"] = 100 * ratio(traced.cost.wallS*traced.speed-bare, bare)
	v["instr.virt_digest_equal"] = 0
	if traced.sum() == reps[0].sum() {
		v["instr.virt_digest_equal"] = 1
	} else if v["virt_repeat_exact"] == 1 {
		out.problems = append(out.problems, "instr.virt_digest_equal: attaching instruments changed a virtual number")
	}
	phaseShares(obs.rec.Requests(), v)
	if err := cpuShares(cfg.exe, profPath, v); err != nil {
		fmt.Fprintln(os.Stderr, "bench: warning: prof.cpu_share.* absent:", err)
	}
	for k, x := range runProbes(spans, cfg.div) {
		v[k] = x
	}
	path, err := writeSpans(cfg.outDir, sc.name, spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %s: %d host spans -> %s, cpu profile -> %s\n", sc.name, len(spans.Spans), path, profPath)
	return out, nil
}

// report prints every number the run computed and builds the result: the
// spec's metrics for the mode, each of which must have been computed.
func report(w io.Writer, spec *benchSpec, sc *scenario, cfg runConfig, out *outcome, detail bool) (*result, error) {
	units := make(map[string]string)
	for _, m := range spec.metrics() {
		units[m.Name] = m.Unit
	}
	fmt.Fprintf(w, "# %s seed=%d: %d measured reps, %d latency samples per rep, %d ops attempted, %d failed\n",
		sc.name, cfg.seed, out.reps, out.samples, out.attempted, out.failed)
	if sc.note != "" {
		fmt.Fprintf(w, "# %s: %s\n", sc.name, sc.note)
	}
	for _, k := range sortedKeys(out.vals) {
		fmt.Fprintf(w, "%-18s %-40s %16.6g %s\n", sc.name, k, out.vals[k], units[k])
	}
	res := &result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric)}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	if detail {
		want = spec.metrics()
	}
	for _, m := range want {
		x, ok := out.vals[m.Name]
		switch {
		case !ok && detail:
			continue
		case !ok && strings.HasPrefix(m.Name, "prof.cpu_share."):
			// Warned about above: the pprof tool was unavailable.
		case !ok && !inLayerOf(m.Name, sc):
			// A layer this workload never enters has nothing to count.
		case !ok:
			return nil, fmt.Errorf("metric %s of BENCHMARK.json was not measured on %s", m.Name, sc.name)
		case math.IsNaN(x) || math.IsInf(x, 0):
			return nil, fmt.Errorf("metric %s on %s is %v", m.Name, sc.name, x)
		}
		res.Metrics[m.Name] = metric{Value: x, Unit: m.Unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# FAILED %s: %s\n", sc.name, p)
	}
	return res, nil
}

// bypassed names, per workload, the metrics it has nothing to count for: the
// layers it never enters, whose change must move nothing on that workload,
// and on cluster_observed the drivers the cluster keeps to itself. They read
// zero there; any other metric of BENCHMARK.json that goes unmeasured is an
// error.
var bypassed = map[string][]string{
	"trail_burst":      {"stddisk.", "wal.", "txn.", "bufcache.", "cluster.", "virt_tpmC", "virt_read_p99_us"},
	"std_deepq":        {"trail.", "disk.log.", "wal.", "txn.", "bufcache.", "cluster.", "virt_tpmC", "virt_recover_s", "host_recover_s"},
	"tpcc_trail":       {"stddisk.", "cluster.", "trail.staged_mb_at_cut", "trail.outstanding_records_at_cut", "trail.recover.", "virt_recover_s", "host_recover_s", "virt_read_p99_us"},
	"cluster_observed": {"stddisk.", "wal.", "txn.", "bufcache.", "trail.", "disk.", "sched.", "virt_tpmC", "virt_recover_s", "host_recover_s"},
}

func inLayerOf(metric string, sc *scenario) bool {
	for _, prefix := range bypassed[sc.name] {
		if strings.HasPrefix(metric, prefix) {
			return false
		}
	}
	return true
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (default: each workload in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 0, "measuring time per workload; buys one measured rep per 5 s, at least 3 (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "measure the per-layer metrics: three bare reps, one instrumented rep, the probe ladder")
	detail := fs.Bool("detail", false, "put every number computed into the final JSON line, not only the set BENCHMARK.json lists for the mode")
	selfcheck := fs.Bool("selfcheck", false, "run the whole benchmark twice and compare the two against the bounds")
	if err := fs.Parse(boolValues(args, "trace")); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, root, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if err := spec.audit(); err != nil {
		return fail(err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	cfg := runConfig{seed: *seed, trace: *trace, reps: repsFor(*seconds), div: 1, budget: 1.5 * float64(*seconds),
		outDir: filepath.Join(root, spec.Paths[0], "out"), exe: exe}
	if cfg.trace {
		cfg.reps = minReps
	}

	switch {
	case *selfcheck:
		return selfCheck(spec, cfg, *seconds)
	case *name == "":
		if _, err := runAll(spec, cfg, *seconds); err != nil {
			return fail(err)
		}
		return 0
	}
	sc := findWorkload(*name)
	if sc == nil {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	out, err := runWorkload(sc, cfg)
	if err != nil {
		return fail(err)
	}
	res, err := report(os.Stdout, spec, sc, cfg, out, *detail)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// boolValues lets a boolean flag take its value as the next argument
// ("--trace 0"), which the flag package reads as a positional argument.
func boolValues(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		for _, n := range names {
			if (args[i] == "-"+n || args[i] == "--"+n) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out[len(out)-1] += "=" + args[i+1]
				i++
			}
		}
	}
	return out
}

// runAll runs every workload of the spec, each in its own child process and
// strictly one after another, and returns their results by workload.
func runAll(spec *benchSpec, cfg runConfig, seconds int) (map[string]*result, error) {
	all := make(map[string]*result)
	for _, w := range spec.Workloads {
		cmd := exec.Command(cfg.exe, "-workload", w.Name, "-detail",
			fmt.Sprintf("-seed=%d", cfg.seed), fmt.Sprintf("-seconds=%d", seconds), fmt.Sprintf("-trace=%t", cfg.trace))
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if last = sc.Text(); !strings.HasPrefix(last, "{") {
				fmt.Println(last)
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, fmt.Errorf("workload %s: last line is not a result: %w", w.Name, err)
		}
		all[w.Name] = &res
	}
	return all, nil
}

// selfCheck runs the benchmark twice on the same seed and holds the second
// run to the first by each end-to-end metric's bound. Where a workload's
// virtual numbers repeat exactly within a run, they must also repeat
// between the two runs.
func selfCheck(spec *benchSpec, cfg runConfig, seconds int) int {
	cfg.trace = false
	a, err := runAll(spec, cfg, seconds)
	if err == nil {
		var b map[string]*result
		if b, err = runAll(spec, cfg, seconds); err == nil {
			return compare(os.Stdout, spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func compare(w io.Writer, spec *benchSpec, a, b map[string]*result) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "worse by", "bound")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		exact := ra.Metrics["virt_repeat_exact"].Value == 1 && rb.Metrics["virt_repeat_exact"].Value == 1
		for _, m := range spec.EndToEnd {
			x, y := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := ratio(y-x, x)
			if m.Better == "higher" && worse != 0 {
				worse = -worse
			}
			verdict := ""
			switch {
			case strings.HasPrefix(m.Name, "virt_") && exact && x != y:
				verdict = "  FAILED: a virtual number that repeats within a run differs between runs"
			case worse > m.Bound:
				verdict = "  FAILED: beyond the bound"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", wl.Name, m.Name, x, y, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
