// Command rundiff reads runs. Given one run-artifact directory it analyses
// that run; given two runs it gates and explains their difference. Given
// two bare benchfmt files it is the CI regression gate (rundiff
// BENCH_trail.json BENCH_current.json); given two run-artifact directories
// it also says *why*: it loads the full artifact set of a baseline and a
// current run — benchmark summary, utilization timeline, span dump,
// telemetry export, event trace — and takes each request class's change in
// mean latency apart by span phase, in microseconds per request.
//
// Usage:
//
//	rundiff DIR
//	rundiff [-json] BASE CUR
//
// DIR, BASE and CUR are directories that trailsim -out or clustersim -out
// wrote; BASE and CUR may also be bare benchfmt JSON files. A directory is
// read by rig.ReadDir, which validates each artifact through its own
// package's reader; every artifact is optional, but at least one must exist.
//
// One directory prints, from its spans.json, the span budget (each phase's
// share of end-to-end latency per driver and request kind) and the slowest
// 5% of requests with their dominant phase and root cause, then, from its
// trace.json, the Trail driver's head-position prediction audit (omitted
// when the trace holds no predict event). -json, which prints the whole
// report of a comparison as JSON, with one directory is a usage error.
//
// The report has three layers. The bench section is the regression gate:
// a latency metric (mean, p50, p99) may be up to benchfmt.Tolerance (10%)
// worse before the gate fails; rate metrics (entries' "rates" map) are
// higher-is-better, so the same bound limits how far a rate may DROP; a
// baseline entry missing from the current run fails, and improvements never
// fail in either direction. The attribution section is
// the difference of the two runs' span budgets (the budget rundiff DIR
// prints): for each driver/kind group in both runs, its mean-latency change
// and one row per phase, that phase's change in total time divided by the
// group's request count, largest first. A residual, the change in time no
// span covers, closes the sum, so the rows plus the residual equal the mean
// change; it is zero wherever spans tile their requests. Client groups
// (write and read) print first. The support section lists timeline
// occupancy, count and level series and telemetry values that changed by
// 10% or more. The verdict line names the worst bench regression and the
// largest row of the client group whose mean moved most; a regression with
// no span phase moved is flagged UNEXPLAINED. When both sides carry an
// event trace, a first-divergence line names the first event where the two
// streams part (index, virtual instant, track, and each side's event), or
// says they are identical; it is informational and moves neither the
// findings nor the exit status.
//
// Exit status: 0 when every section is empty (the runs align within
// tolerance) and after one directory's analysis, 1 when any finding
// survives, 2 on usage or artifact errors.
// Output is byte-deterministic for a given input pair.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/rig"
	"tracklog/internal/span"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the full machine-readable comparison (-json output). Field
// order is the print order; all slices are sorted deterministically.
type Report struct {
	Base        string       `json:"base"`
	Cur         string       `json:"cur"`
	Bench       []BenchDelta `json:"bench,omitempty"`
	Missing     []string     `json:"missing,omitempty"`
	Attribution []Attrib     `json:"attribution,omitempty"`
	Support     []Support    `json:"support,omitempty"`
	Notes       []string     `json:"notes,omitempty"`
	// FirstDivergence is where the two runs' trace event streams part,
	// informational only: it is no finding and moves no exit status.
	FirstDivergence string `json:"first_divergence,omitempty"`
	Verdict         string `json:"verdict"`
	Findings        int    `json:"findings"`
}

// num is a report number that may be NaN or infinite. encoding/json refuses
// both, so they encode as null: a NaN base or cur, and a pct whose row says
// in "unbounded" which way it went.
type num float64

func (n num) MarshalJSON() ([]byte, error) {
	if f := float64(n); math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(n))
}

// unbounded names a pct that JSON cannot carry: "+inf", "-inf", "nan", or ""
// for a finite one.
func unbounded(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+inf"
	case math.IsInf(f, -1):
		return "-inf"
	case math.IsNaN(f):
		return "nan"
	}
	return ""
}

// BenchDelta is one benchmark metric change (benchfmt.Delta, stripped to
// the report schema).
type BenchDelta struct {
	Name      string `json:"name"`
	Metric    string `json:"metric"`
	Base      num    `json:"base"`
	Cur       num    `json:"cur"`
	Pct       num    `json:"pct"` // signed, positive = worse; null when Unbounded
	Unbounded string `json:"unbounded,omitempty"`
	Regressed bool   `json:"regressed"`
	// HigherIsBetter marks rate metrics: Base/Cur are rates, not latencies.
	HigherIsBetter bool `json:"higher_is_better,omitempty"`
}

// Attrib is one driver/kind group's change in mean latency, taken apart by
// span phase: each row is the change in that phase's total time divided by
// the group's request count (a phase absent on one side counts as zero
// there), and ResidualUS is the same for the time no span covers, so the
// rows plus the residual equal DeltaUS. All figures are microseconds per
// request.
type Attrib struct {
	Group      string       `json:"group"` // "driver/kind", e.g. "trail/write"
	BaseCount  int64        `json:"base_count"`
	CurCount   int64        `json:"cur_count"`
	BaseMeanUS float64      `json:"base_mean_us"`
	CurMeanUS  float64      `json:"cur_mean_us"`
	DeltaUS    float64      `json:"delta_us"`
	ResidualUS float64      `json:"residual_us"`
	Phases     []PhaseDelta `json:"phases,omitempty"` // nonzero rows, largest first
}

// PhaseDelta is one span phase's change in time per request.
type PhaseDelta struct {
	Phase   string  `json:"name"`
	DeltaUS float64 `json:"delta_us"`
}

// Support is one secondary evidence row: an occupancy or count series
// total, a level series average, or a telemetry metric that moved beyond the
// relative tolerance.
type Support struct {
	Kind      string `json:"kind"` // "occupancy", "count", "level", "telemetry"
	Series    string `json:"series"`
	Base      num    `json:"base"`
	Cur       num    `json:"cur"`
	Pct       num    `json:"pct"` // signed relative change; null when Unbounded
	Unbounded string `json:"unbounded,omitempty"`
}

func supportRow(kind, series string, base, cur, pct float64) Support {
	return Support{Kind: kind, Series: series, Base: num(base), Cur: num(cur), Pct: num(pct), Unbounded: unbounded(pct)}
}

// artifacts is one side's loaded run: a run directory, or a bare benchfmt
// file as a run with only its Bench set.
type artifacts struct {
	path string
	*rig.Run
}

// errBadRun is the sentinel every artifact-load failure wraps: the fuzz
// contract is that malformed input yields an error satisfying
// errors.Is(err, errBadRun), never a panic.
var errBadRun = errors.New("rundiff: bad run artifacts")

// loadArtifacts loads one side. A regular file is a bare benchfmt summary
// (the CI bench-gate mode); a directory is read by rig.ReadDir, which
// validates every artefact it finds.
func loadArtifacts(path string) (*artifacts, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, errBadRun)
	}
	if !st.IsDir() {
		bench, err := benchfmt.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %v: %w", path, err, errBadRun)
		}
		return &artifacts{path: path, Run: &rig.Run{Bench: bench}}, nil
	}
	run, err := rig.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, errBadRun)
	}
	return &artifacts{path: path, Run: run}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rundiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, "-"+f.Name) })
	switch {
	case fs.NArg() == 1 && len(set) > 0:
		fmt.Fprintf(stderr, "rundiff: %s configure a comparison; one run directory prints as text\n", strings.Join(set, " "))
		return 2
	case fs.NArg() == 1:
		return explain(fs.Arg(0), stdout, stderr)
	case fs.NArg() != 2:
		fmt.Fprintln(stderr, "usage: rundiff [flags] BASE CUR  (run-artifact directories or benchfmt files)")
		fmt.Fprintln(stderr, "       rundiff DIR               (one run directory)")
		return 2
	}
	base, err := loadArtifacts(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "rundiff:", err)
		return 2
	}
	cur, err := loadArtifacts(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "rundiff:", err)
		return 2
	}

	rep := compare(base, cur)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false) // the first-divergence line's "->" stays readable
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "rundiff:", err)
			return 2
		}
	} else {
		printReport(stdout, rep)
	}
	if rep.Findings > 0 {
		return 1
	}
	return 0
}

// explain prints what one run directory says about itself: from spans.json
// the span budget (each phase's share of latency per driver and kind) and
// the slowest span.TailFrac of requests with their dominant phase and cause, and
// from trace.json the prediction audit of the Trail driver's record writes.
// A block whose artefact is absent or empty is left out.
func explain(dir string, stdout, stderr io.Writer) int {
	run, err := rig.ReadDir(dir)
	var audit *trace.AuditReport
	if err == nil {
		audit, err = trace.AuditEvents(run.Trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "rundiff:", err)
		return 2
	}
	if len(run.Spans) > 0 {
		fmt.Fprint(stdout, span.Analyze(run.Spans))
		fmt.Fprint(stdout, span.ExplainTail(run.Spans))
	}
	if audit.Predictions > 0 {
		fmt.Fprint(stdout, audit)
	}
	return 0
}

// compare builds the full report for one artifact pair.
func compare(base, cur *artifacts) *Report {
	rep := &Report{Base: base.path, Cur: cur.path}
	benchRegressed := compareBench(rep, base, cur)
	compareTimelines(rep, base.Timeline, cur.Timeline)
	compareSpans(rep, base.Spans, cur.Spans)
	compareProm(rep, base.Metrics, cur.Metrics)
	compareTraces(rep, base.Trace, cur.Trace)

	sort.SliceStable(rep.Support, func(i, j int) bool {
		si, sj := rep.Support[i], rep.Support[j]
		if d := math.Abs(float64(si.Pct)) - math.Abs(float64(sj.Pct)); d != 0 {
			return d > 0
		}
		if si.Kind != sj.Kind {
			return si.Kind < sj.Kind
		}
		return si.Series < sj.Series
	})

	rep.Findings = len(rep.Missing) + len(rep.Attribution) + len(rep.Support)
	// The verdict names the worst regressed metric; a change from a zero
	// baseline is +Inf, worse than any finite one.
	worstBench := ""
	worstPct := num(math.Inf(-1))
	for _, d := range rep.Bench {
		if d.Regressed {
			rep.Findings++
			if d.Pct > worstPct {
				worstPct = d.Pct
				worstBench = fmt.Sprintf("%s %s %+.1f%%", d.Name, d.Metric, d.Pct)
			}
		}
	}

	switch {
	case rep.Findings == 0:
		rep.Verdict = "ok: runs aligned; no deltas above tolerance"
	case benchRegressed && len(rep.Attribution) > 0:
		rep.Verdict = fmt.Sprintf("%s: top attribution %s", worstBench, lead(rep.Attribution))
	case benchRegressed:
		rep.Verdict = fmt.Sprintf("%s: UNEXPLAINED (no span phase moved)", worstBench)
	case len(rep.Missing) > 0:
		rep.Verdict = fmt.Sprintf("%d experiment(s) missing from current run", len(rep.Missing))
		if len(rep.Attribution) > 0 {
			rep.Verdict += "; top behavioral delta " + lead(rep.Attribution)
		}
	case len(rep.Attribution) > 0:
		rep.Verdict = "no benchmark regression; top behavioral delta " + lead(rep.Attribution)
	default:
		rep.Verdict = fmt.Sprintf("no benchmark regression; %d support delta(s) above tolerance", len(rep.Support))
	}
	return rep
}

// compareBench runs the regression gate when both sides carry a summary.
// It reports whether any metric regressed beyond benchfmt.Tolerance.
func compareBench(rep *Report, base, cur *artifacts) bool {
	switch {
	case base.Bench == nil && cur.Bench == nil:
		return false
	case base.Bench == nil || cur.Bench == nil:
		rep.Notes = append(rep.Notes, "bench summary present on one side only; bench section skipped")
		return false
	}
	deltas, missing := benchfmt.Compare(base.Bench, cur.Bench)
	regressed := false
	for _, d := range deltas {
		rep.Bench = append(rep.Bench, BenchDelta{
			Name: d.Name, Metric: d.Metric, Base: num(d.Base), Cur: num(d.Cur),
			Pct: num(d.Pct), Unbounded: unbounded(d.Pct), Regressed: d.Regressed, HigherIsBetter: d.HigherIsBetter,
		})
		regressed = regressed || d.Regressed
	}
	rep.Missing = missing
	return regressed
}

// compareTimelines aligns two timeline exports by series key and makes a
// support row of every occupancy or count total and level average that
// moved by benchfmt.Tolerance or more.
func compareTimelines(rep *Report, base, cur *timeline.Timeline) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil || cur == nil:
		rep.Notes = append(rep.Notes, "timeline present on one side only; timeline section skipped")
		return
	}
	if base.BucketNS != cur.BucketNS {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"timeline bucket widths differ (%dns vs %dns); timeline section skipped",
			base.BucketNS, cur.BucketNS))
		return
	}
	for _, key := range unionKeys(base, cur) {
		bs := lookupKey(base, key)
		cs := lookupKey(cur, key)
		var kind string
		var b, c float64
		switch seriesKind(bs, cs) {
		case "occupancy_ns":
			kind, b, c = "occupancy", seriesTotal(bs), seriesTotal(cs)
		case "count":
			kind, b, c = "count", seriesTotal(bs), seriesTotal(cs)
		case "mean":
			kind, b, c = "level", seriesAvg(bs, base.Buckets()), seriesAvg(cs, cur.Buckets())
		default:
			continue
		}
		if pct, over := relDelta(b, c); over {
			rep.Support = append(rep.Support, supportRow(kind, key, b, c, pct))
		}
	}
}

func seriesTotal(s *timeline.Series) float64 {
	if s == nil {
		return 0
	}
	var t float64
	for _, p := range s.Points {
		t += p.Value
	}
	return t
}

// seriesAvg is the bucket-mean average over the run horizon (absent buckets
// count as zero, matching the sparse export).
func seriesAvg(s *timeline.Series, buckets int64) float64 {
	if s == nil || buckets <= 0 {
		return 0
	}
	return seriesTotal(s) / float64(buckets)
}

func seriesKind(bs, cs *timeline.Series) string {
	if bs != nil {
		return bs.Kind
	}
	if cs != nil {
		return cs.Kind
	}
	return ""
}

// unionKeys returns every series key present in either timeline, sorted.
func unionKeys(base, cur *timeline.Timeline) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, t := range []*timeline.Timeline{base, cur} {
		for i := range t.Series {
			k := t.Series[i].Key()
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

func lookupKey(t *timeline.Timeline, key string) *timeline.Series {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) != 3 {
		return nil
	}
	return t.Lookup(parts[0], parts[1], parts[2])
}

// compareSpans takes the difference of the two runs' span budgets: one
// Attrib for each driver/kind group present in both that moved, client
// groups first. A group on one side only is a note.
func compareSpans(rep *Report, base, cur []*span.Request) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil || cur == nil:
		rep.Notes = append(rep.Notes, "span dump present on one side only; span section skipped")
		return
	}
	bb, cb := span.Analyze(base), span.Analyze(cur)
	for _, g := range bb.Groups {
		if cb.Group(g.Key) == nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("span group %s in base run only", g.Key))
		}
	}
	for _, c := range cb.Groups {
		b := bb.Group(c.Key)
		if b == nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("span group %s in current run only", c.Key))
			continue
		}
		if a := groupDelta(b, c); len(a.Phases) > 0 || a.ResidualUS != 0 {
			rep.Attribution = append(rep.Attribution, a)
		}
	}
	sort.SliceStable(rep.Attribution, func(i, j int) bool {
		return client(rep.Attribution[i].Group) && !client(rep.Attribution[j].Group)
	})
}

// groupDelta takes one group's change in mean latency apart by phase.
func groupDelta(b, c *span.GroupBudget) Attrib {
	a := Attrib{
		Group: c.Key, BaseCount: b.Count, CurCount: c.Count,
		BaseMeanUS: perReqUS(b.Latency.Sum(), b.Count), CurMeanUS: perReqUS(c.Latency.Sum(), c.Count),
		ResidualUS: perReqUS(c.Unattributed, c.Count) - perReqUS(b.Unattributed, b.Count),
	}
	a.DeltaUS = a.CurMeanUS - a.BaseMeanUS
	d := make(map[span.Phase]float64)
	for _, p := range c.Phases {
		d[p.Phase] += perReqUS(p.Total, c.Count)
	}
	for _, p := range b.Phases {
		d[p.Phase] -= perReqUS(p.Total, b.Count)
	}
	for ph, us := range d {
		if us != 0 {
			a.Phases = append(a.Phases, PhaseDelta{Phase: ph.String(), DeltaUS: us})
		}
	}
	sort.Slice(a.Phases, func(i, j int) bool {
		pi, pj := a.Phases[i], a.Phases[j]
		if di, dj := math.Abs(pi.DeltaUS), math.Abs(pj.DeltaUS); di != dj {
			return di > dj
		}
		return pi.Phase < pj.Phase
	})
	return a
}

// perReqUS is total spread over n requests, in microseconds.
func perReqUS(total time.Duration, n int64) float64 {
	return float64(total) / float64(n) / 1e3
}

// client reports whether a "driver/kind" group holds client requests, the
// writes and reads a bench entry times, rather than write-backs or recovery.
func client(group string) bool {
	kind := group[strings.LastIndexByte(group, '/')+1:]
	return kind == span.KWrite.String() || kind == span.KRead.String()
}

// lead names the largest row of the client group whose mean moved most, or
// of the group whose mean moved most when no client group moved; attrib
// lists client groups first.
func lead(attrib []Attrib) string {
	var top *Attrib
	for i := range attrib {
		a := &attrib[i]
		if top == nil || client(a.Group) == client(top.Group) && math.Abs(a.DeltaUS) > math.Abs(top.DeltaUS) {
			top = a
		}
	}
	row := PhaseDelta{Phase: "residual", DeltaUS: top.ResidualUS}
	if len(top.Phases) > 0 && math.Abs(top.Phases[0].DeltaUS) >= math.Abs(row.DeltaUS) {
		row = top.Phases[0]
	}
	return fmt.Sprintf("%s %s %+.3fus of %+.3fus per request", top.Group, row.Phase, row.DeltaUS, top.DeltaUS)
}

// compareProm diffs two telemetry exports by metric name, reporting values
// whose relative change clears benchfmt.Tolerance.
func compareProm(rep *Report, base, cur map[string]float64) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil || cur == nil:
		rep.Notes = append(rep.Notes, "telemetry export present on one side only; telemetry section skipped")
		return
	}
	seen := make(map[string]bool)
	var names []string
	for n := range base {
		seen[n] = true
		names = append(names, n)
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if pct, over := relDelta(base[n], cur[n]); over {
			rep.Support = append(rep.Support, supportRow("telemetry", n, base[n], cur[n], pct))
		}
	}
}

// compareTraces walks both runs' trace events in lockstep and names the
// first one where they part. Same-seed runs that differ in one knob share
// an identical prefix, so that event is where the knob first shows.
func compareTraces(rep *Report, base, cur []trace.ChromeEvent) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil || cur == nil:
		rep.Notes = append(rep.Notes, "trace present on one side only; first divergence skipped")
		return
	}
	i := 0
	for i < len(base) && i < len(cur) && base[i] == cur[i] {
		i++
	}
	if i == len(base) && i == len(cur) {
		rep.FirstDivergence = "event streams identical"
		return
	}
	var b, c *trace.ChromeEvent
	if i < len(base) {
		b = &base[i]
	}
	if i < len(cur) {
		c = &cur[i]
	}
	head := b
	if b == nil || c != nil && c.At < b.At {
		head = c
	}
	rep.FirstDivergence = fmt.Sprintf("event %d at %sus on %s: %s -> %s",
		i, trace.Usec(head.At), head.Track, describe(b, head), describe(c, head))
}

// describe renders one side's event at a divergence: its name, where and
// when if that differs from the line's head, its duration and its args.
func describe(ev, head *trace.ChromeEvent) string {
	if ev == nil {
		return "end of trace"
	}
	s := ev.Name
	if ev.Track != head.Track || ev.At != head.At {
		s += fmt.Sprintf(" on %s at %sus", ev.Track, trace.Usec(ev.At))
	}
	if ev.Ph == "X" {
		s += " dur " + trace.Usec(ev.Dur) + "us"
	}
	if ev.Args != "" {
		s += " " + ev.Args
	}
	return s
}

// relDelta computes the signed relative change in percent and whether it
// clears benchfmt.Tolerance. Equal values never report, and NaN on both sides
// counts as equal; a change from zero, or to or from NaN, always does (the
// relative change is unbounded).
func relDelta(base, cur float64) (pct float64, over bool) {
	bNaN, cNaN := math.IsNaN(base), math.IsNaN(cur)
	switch {
	case base == cur || bNaN && cNaN:
		return 0, false
	case bNaN || cNaN:
		return math.Inf(1), true
	case base == 0:
		return math.Inf(sign(cur)), true
	}
	pct = (cur - base) / math.Abs(base) * 100
	return pct, math.Abs(pct) >= benchfmt.Tolerance*100
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// printReport renders the text form: bench table, attribution by group,
// support rows, notes, verdict. Sections with no rows are omitted, so the
// aligned-runs report is a single ok line.
func printReport(w io.Writer, rep *Report) {
	regressed := 0
	for _, d := range rep.Bench {
		if d.Regressed {
			regressed++
		}
	}
	if regressed > 0 || len(rep.Missing) > 0 {
		fmt.Fprintln(w, "== bench ==")
		// Only regressed rows print; the full delta table lives in -json.
		for _, d := range rep.Bench {
			if !d.Regressed {
				continue
			}
			if d.HigherIsBetter {
				// Pct is signed worse-positive; show the raw rate change.
				fmt.Fprintf(w, "%-36s %-24s %12.0f -> %12.0f  %+6.1f%%  REGRESSION\n",
					d.Name, d.Metric, d.Base, d.Cur, -d.Pct)
				continue
			}
			fmt.Fprintf(w, "%-36s %-4s %10.1fus -> %10.1fus  %+6.1f%%  REGRESSION\n",
				d.Name, d.Metric, d.Base, d.Cur, d.Pct)
		}
		for _, name := range rep.Missing {
			fmt.Fprintf(w, "%-36s MISSING from current run\n", name)
		}
	}
	if len(rep.Attribution) > 0 {
		fmt.Fprintln(w, "== attribution (us per request) ==")
		for _, a := range rep.Attribution {
			fmt.Fprintf(w, "%s: %d -> %d requests, mean %.3fus -> %.3fus, %+.3fus, residual %+.3fus\n",
				a.Group, a.BaseCount, a.CurCount, a.BaseMeanUS, a.CurMeanUS, a.DeltaUS, a.ResidualUS)
			for _, p := range a.Phases {
				fmt.Fprintf(w, "    %-12s %+12.3fus\n", p.Phase, p.DeltaUS)
			}
		}
	}
	if len(rep.Support) > 0 {
		fmt.Fprintln(w, "== support ==")
		for _, s := range rep.Support {
			fmt.Fprintf(w, "    %-9s %-36s %12.6g -> %12.6g  %+6.1f%%\n",
				s.Kind, s.Series, s.Base, s.Cur, s.Pct)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if rep.FirstDivergence != "" {
		fmt.Fprintln(w, "first divergence:", rep.FirstDivergence)
	}
	fmt.Fprintln(w, "verdict:", rep.Verdict)
}
