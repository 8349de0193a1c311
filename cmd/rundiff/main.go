// Command rundiff gates and explains the difference between two runs. Given
// two bare benchfmt files it is the CI regression gate (rundiff
// BENCH_trail.json BENCH_current.json); given two run-artifact directories
// it also says *why*: it loads the full artifact set of a baseline and a
// current run — benchmark summary, utilization timeline, span dump,
// telemetry export — aligns them by component/phase/bucket, and emits a
// ranked attribution report: which mechanical phase, queue, or counter
// moved, by how many percentage points of the run, and in which bucket
// window the shift concentrates.
//
// Usage:
//
//	rundiff [-mean-tol F] [-p50-tol F] [-p99-tol F] [-rate-tol F]
//	        [-occ-tol PP] [-json] BASE CUR
//
// BASE and CUR are either run-artifact directories or bare benchfmt JSON
// files. A directory is probed for the conventional artifact names, all
// optional (at least one must exist):
//
//	bench.json    benchfmt summary        (trailsim -out, reproduce -json)
//	timeline.csv  utilization timeline    (trailsim -out, clustersim -out)
//	spans.json    span dump               (trailsim -out, clustersim -out)
//	metrics.prom  telemetry export        (trailsim -out, clustersim -out)
//
// -mean-tol, -p50-tol and -p99-tol bound the latency metrics, -rate-tol the
// rates (all 0.10 by default), -occ-tol floors the attribution rows in
// percentage points of run time (default 1), and -json prints the whole
// report as JSON, every attribution row included (the text form prints the
// top ten).
//
// The report has three layers. The bench section is the regression gate:
// tolerances are relative (0.10 = a metric may be up to 10% worse before the
// gate fails, a negative tolerance disables that metric), rate metrics
// (entries' "rates" map) are higher-is-better so -rate-tol bounds how far a
// rate may DROP, a baseline entry missing from the current run fails, and
// improvements never fail in either direction. The attribution
// section ranks share-of-run deltas — timeline occupancy states and span
// phases, both in percentage points of total run time, so they are directly
// comparable — worst first; occupancy findings carry the contiguous bucket
// window where the shift is largest. The support section lists count, level,
// and telemetry value changes of 10% or more. The verdict
// line names the worst bench regression and the top-ranked attribution; a
// regression with no attribution above tolerance is flagged UNEXPLAINED.
//
// Exit status: 0 when every section is empty (the runs align within
// tolerance), 1 when any finding survives, 2 on usage or artifact errors.
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
	"path/filepath"
	"sort"
	"strings"

	"tracklog/internal/benchfmt"
	"tracklog/internal/timeline"
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
	Verdict     string       `json:"verdict"`
	Findings    int          `json:"findings"`
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

// Attrib is one ranked share-of-run finding. BasePct/CurPct are percent of
// the run horizon; DeltaPP their difference in percentage points. For
// occupancy findings WorstLo/WorstHi bound the contiguous bucket window
// [lo, hi) where the shift concentrates.
type Attrib struct {
	Kind     string  `json:"kind"` // "occupancy" or "span"
	Series   string  `json:"series"`
	BasePct  float64 `json:"base_pct"`
	CurPct   float64 `json:"cur_pct"`
	DeltaPP  float64 `json:"delta_pp"`
	WorstLo  int64   `json:"worst_lo,omitempty"`
	WorstHi  int64   `json:"worst_hi,omitempty"`
	HasWorst bool    `json:"-"`
}

// Support is one secondary evidence row: a count series total, a level
// series average, or a telemetry metric that moved beyond the relative
// tolerance.
type Support struct {
	Kind      string `json:"kind"` // "count", "level", "telemetry"
	Series    string `json:"series"`
	Base      num    `json:"base"`
	Cur       num    `json:"cur"`
	Pct       num    `json:"pct"` // signed relative change; null when Unbounded
	Unbounded string `json:"unbounded,omitempty"`
}

func supportRow(kind, series string, base, cur, pct float64) Support {
	return Support{Kind: kind, Series: series, Base: num(base), Cur: num(cur), Pct: num(pct), Unbounded: unbounded(pct)}
}

// artifacts is one side's loaded run.
type artifacts struct {
	path  string
	bench *benchfmt.File
	tl    *timeline.Timeline
	spans *spanDump
	prom  map[string]float64
}

// errBadRun is the sentinel every artifact-load failure wraps: the fuzz
// contract is that malformed input yields an error satisfying
// errors.Is(err, errBadRun), never a panic.
var errBadRun = errors.New("rundiff: bad run artifacts")

func badRun(path string, err error) error {
	return fmt.Errorf("%s: %v: %w", path, err, errBadRun)
}

// loadArtifacts loads one side. A regular file is a bare benchfmt summary
// (the CI bench-gate mode); a directory is probed for the conventional
// names, and at least one artifact must be present.
func loadArtifacts(path string) (*artifacts, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, badRun(path, err)
	}
	a := &artifacts{path: path}
	if !st.IsDir() {
		f, err := benchfmt.ReadFile(path)
		if err != nil {
			return nil, badRun(path, err)
		}
		a.bench = f
		return a, nil
	}
	found := 0
	if p := filepath.Join(path, "bench.json"); exists(p) {
		f, err := benchfmt.ReadFile(p)
		if err != nil {
			return nil, badRun(p, err)
		}
		a.bench, found = f, found+1
	}
	if p := filepath.Join(path, "timeline.csv"); exists(p) {
		t, err := timeline.ParseFile(p)
		if err != nil {
			return nil, badRun(p, err)
		}
		a.tl, found = t, found+1
	}
	if p := filepath.Join(path, "spans.json"); exists(p) {
		d, err := parseSpanFile(p)
		if err != nil {
			return nil, badRun(p, err)
		}
		a.spans, found = d, found+1
	}
	if p := filepath.Join(path, "metrics.prom"); exists(p) {
		m, err := parsePromFile(p)
		if err != nil {
			return nil, badRun(p, err)
		}
		a.prom, found = m, found+1
	}
	if found == 0 {
		return nil, badRun(path, errors.New("no run artifacts (bench.json, timeline.csv, spans.json, metrics.prom)"))
	}
	return a, nil
}

func exists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rundiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	meanTol := fs.Float64("mean-tol", 0.10, "relative mean-latency tolerance (negative disables)")
	p50Tol := fs.Float64("p50-tol", 0.10, "relative p50-latency tolerance (negative disables)")
	p99Tol := fs.Float64("p99-tol", 0.10, "relative p99-latency tolerance (negative disables)")
	rateTol := fs.Float64("rate-tol", 0.10, "relative throughput-rate drop tolerance (negative disables)")
	occTol := fs.Float64("occ-tol", 1.0, "attribution floor in percentage points of run time")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: rundiff [flags] BASE CUR  (run-artifact directories or benchfmt files)")
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

	rep := compare(base, cur, benchfmt.Tolerance{Mean: *meanTol, P50: *p50Tol, P99: *p99Tol, Rate: *rateTol}, *occTol)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
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

// supportTol is the relative change a count, level or telemetry series
// must reach to become a support row (0.10 = 10%).
const supportTol = 0.10

// topRows is how many attribution rows the text report prints; the JSON
// report carries all of them.
const topRows = 10

// compare builds the full report for one artifact pair: bench gates the
// benchmark summary, occPP (percentage points of run time) floors the
// attribution rows.
func compare(base, cur *artifacts, bench benchfmt.Tolerance, occPP float64) *Report {
	rep := &Report{Base: base.path, Cur: cur.path}
	benchRegressed := compareBench(rep, base, cur, bench)
	compareTimelines(rep, base.tl, cur.tl, occPP)
	compareSpans(rep, base.spans, cur.spans, occPP)
	compareProm(rep, base.prom, cur.prom)

	sort.SliceStable(rep.Attribution, func(i, j int) bool {
		ai, aj := rep.Attribution[i], rep.Attribution[j]
		if d := math.Abs(ai.DeltaPP) - math.Abs(aj.DeltaPP); d != 0 {
			return d > 0
		}
		if ai.Series != aj.Series {
			return ai.Series < aj.Series
		}
		return ai.Kind < aj.Kind
	})
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
	regressions := 0
	worstBench := ""
	worstPct := num(0)
	for _, d := range rep.Bench {
		if d.Regressed {
			regressions++
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
		a := rep.Attribution[0]
		rep.Verdict = fmt.Sprintf("%s: top attribution %s %s %+.2fpp%s",
			worstBench, a.Kind, a.Series, a.DeltaPP, worstWindow(a))
	case benchRegressed:
		rep.Verdict = fmt.Sprintf("%s: UNEXPLAINED (no attribution above tolerance)", worstBench)
	case len(rep.Missing) > 0:
		rep.Verdict = fmt.Sprintf("%d experiment(s) missing from current run", len(rep.Missing))
	case len(rep.Attribution) > 0:
		a := rep.Attribution[0]
		rep.Verdict = fmt.Sprintf("no benchmark regression; top behavioral delta %s %s %+.2fpp%s",
			a.Kind, a.Series, a.DeltaPP, worstWindow(a))
	default:
		rep.Verdict = fmt.Sprintf("no benchmark regression; %d support delta(s) above tolerance", len(rep.Support))
	}
	return rep
}

func worstWindow(a Attrib) string {
	if !a.HasWorst {
		return ""
	}
	return fmt.Sprintf(" in buckets [%d,%d)", a.WorstLo, a.WorstHi)
}

// compareBench runs the regression gate when both sides carry a summary.
// It reports whether any metric regressed beyond tolerance.
func compareBench(rep *Report, base, cur *artifacts, tol benchfmt.Tolerance) bool {
	switch {
	case base.bench == nil && cur.bench == nil:
		return false
	case base.bench == nil || cur.bench == nil:
		rep.Notes = append(rep.Notes, "bench summary present on one side only; bench section skipped")
		return false
	}
	deltas, missing := benchfmt.Compare(base.bench, cur.bench, tol)
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

// compareTimelines aligns two timeline exports by series key and feeds
// occupancy shares into the attribution ranking, count totals and level
// averages into the support section.
func compareTimelines(rep *Report, base, cur *timeline.Timeline, occPP float64) {
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
		kind := seriesKind(bs, cs)
		switch kind {
		case "occupancy_ns":
			occupancyAttrib(rep, key, base, cur, bs, cs, occPP)
		case "count":
			b, c := seriesTotal(bs), seriesTotal(cs)
			if pct, over := relDelta(b, c, supportTol); over {
				rep.Support = append(rep.Support, supportRow("count", key, b, c, pct))
			}
		case "mean":
			b, c := seriesAvg(bs, base.Buckets()), seriesAvg(cs, cur.Buckets())
			if pct, over := relDelta(b, c, supportTol); over {
				rep.Support = append(rep.Support, supportRow("level", key, b, c, pct))
			}
		}
	}
}

// occupancyAttrib turns one occupancy series pair into an attribution row
// when the share-of-run delta clears the pp floor. The worst window is the
// contiguous bucket range maximizing the accumulated shift in the delta's
// direction (maximum-sum subarray over per-bucket occupancy differences).
func occupancyAttrib(rep *Report, key string, base, cur *timeline.Timeline, bs, cs *timeline.Series, occPP float64) {
	basePct := shareOf(bs, base.EndNS)
	curPct := shareOf(cs, cur.EndNS)
	deltaPP := curPct - basePct
	if math.Abs(deltaPP) < occPP {
		return
	}
	a := Attrib{Kind: "occupancy", Series: key, BasePct: basePct, CurPct: curPct, DeltaPP: deltaPP}
	n := base.Buckets()
	if cb := cur.Buckets(); cb > n {
		n = cb
	}
	if lo, hi, ok := worstBuckets(bs, cs, n, deltaPP < 0); ok {
		a.WorstLo, a.WorstHi, a.HasWorst = lo, hi, true
	}
	rep.Attribution = append(rep.Attribution, a)
}

// worstBuckets finds the contiguous bucket window [lo, hi) with the largest
// accumulated occupancy shift from bs to cs (negated when negate is set, for
// findings that shrank). Kadane over the dense per-bucket difference.
func worstBuckets(bs, cs *timeline.Series, n int64, negate bool) (lo, hi int64, ok bool) {
	diff := make([]float64, n)
	for _, p := range points(bs) {
		if p.Bucket < n {
			diff[p.Bucket] -= p.Value
		}
	}
	for _, p := range points(cs) {
		if p.Bucket < n {
			diff[p.Bucket] += p.Value
		}
	}
	if negate {
		for i := range diff {
			diff[i] = -diff[i]
		}
	}
	best, bestLo, bestHi := 0.0, int64(0), int64(0)
	sum, start := 0.0, int64(0)
	for i := int64(0); i < n; i++ {
		sum += diff[i]
		if sum <= 0 {
			sum, start = 0, i+1
			continue
		}
		if sum > best {
			best, bestLo, bestHi = sum, start, i+1
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	return bestLo, bestHi, true
}

func points(s *timeline.Series) []timeline.Point {
	if s == nil {
		return nil
	}
	return s.Points
}

// shareOf is a series' total occupancy as percent of the run horizon.
func shareOf(s *timeline.Series, endNS int64) float64 {
	if s == nil || endNS <= 0 {
		return 0
	}
	return seriesTotal(s) / float64(endNS) * 100
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

// compareSpans aggregates each span dump into per-(kind, phase) shares of
// total request latency and feeds the pp deltas into the attribution
// ranking, directly comparable with occupancy shares.
func compareSpans(rep *Report, base, cur *spanDump, occPP float64) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil || cur == nil:
		rep.Notes = append(rep.Notes, "span dump present on one side only; span section skipped")
		return
	}
	bShares := base.phaseShares()
	cShares := cur.phaseShares()
	seen := make(map[string]bool)
	var keys []string
	for k := range bShares {
		seen[k] = true
		keys = append(keys, k)
	}
	for k := range cShares {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		deltaPP := cShares[k] - bShares[k]
		if math.Abs(deltaPP) < occPP {
			continue
		}
		rep.Attribution = append(rep.Attribution, Attrib{
			Kind: "span", Series: k,
			BasePct: bShares[k], CurPct: cShares[k], DeltaPP: deltaPP,
		})
	}
}

// compareProm diffs two telemetry exports by metric name, reporting values
// whose relative change clears the support tolerance.
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
		if pct, over := relDelta(base[n], cur[n], supportTol); over {
			rep.Support = append(rep.Support, supportRow("telemetry", n, base[n], cur[n], pct))
		}
	}
}

// relDelta computes the signed relative change in percent and whether it
// clears the tolerance. Equal values never report, and NaN on both sides
// counts as equal; a change from zero, or to or from NaN, always does (the
// relative change is unbounded).
func relDelta(base, cur, tol float64) (pct float64, over bool) {
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
	return pct, math.Abs(pct) >= tol*100
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// printReport renders the text form: bench table, ranked attribution,
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
		fmt.Fprintln(w, "== attribution (share of run) ==")
		for i, a := range rep.Attribution {
			if i >= topRows {
				fmt.Fprintf(w, "... %d more (see -json)\n", len(rep.Attribution)-i)
				break
			}
			fmt.Fprintf(w, "%2d. %-9s %-36s %7.3f%% -> %7.3f%%  %+6.2fpp%s\n",
				i+1, a.Kind, a.Series, a.BasePct, a.CurPct, a.DeltaPP, worstWindow(a))
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
	fmt.Fprintln(w, "verdict:", rep.Verdict)
}
