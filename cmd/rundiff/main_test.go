package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracklog/internal/benchfmt"
)

// writeDir materializes a run-artifact directory from name->content pairs.
func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func benchJSON(t *testing.T, p99 float64) string {
	t.Helper()
	f := &benchfmt.File{Experiments: []benchfmt.Entry{{
		Name: "sync-write/trail/sparse/4096B", Count: 600,
		MeanUS: 2800, P50US: 2500, P99US: p99,
	}}}
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// timelineCSV builds a two-series export: seek occupancy at occNS per bucket
// over buckets [0,50) and a count series, against a 1s horizon of 10ms
// buckets.
func timelineCSV(occNS int64) string {
	var b strings.Builder
	b.WriteString("# tracklog-timeline v1 bucket_ns=10000000 end_ns=1000000000\n")
	b.WriteString("component,track,series,kind,bucket,value\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "disk,log0,state/seek,occupancy_ns,%d,%d\n", i, occNS)
	}
	b.WriteString("trail,driver,writebacks,count,3,7\n")
	return b.String()
}

// spanJSON is a span dump of one trail write: a seek of seekNS, then a 1 ms
// transfer, tiling the request.
func spanJSON(seekNS int64) string {
	return fmt.Sprintf(`{"version":1,"dropped":0,"requests":[
{"id":1,"kind":"write","driver":"trail","dev":"data0","lba":0,"count":8,"start_ns":0,"end_ns":%[2]d,"err":0,"spans":[{"phase":"seek","start_ns":0,"end_ns":%[1]d,"a":0,"b":0},{"phase":"transfer","start_ns":%[1]d,"end_ns":%[2]d,"a":0,"b":0}]}
]}
`, seekNS, seekNS+1000000)
}

func runDiff(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestIdenticalRunsEmptyReport(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"bench.json":   benchJSON(t, 12000),
		"timeline.csv": timelineCSV(200000),
		"spans.json":   spanJSON(2000000),
		"metrics.prom": "tracklog_disk_seek_ms 179.5\n",
	})
	code, out, _ := runDiff(t, dir, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	want := "verdict: ok: runs aligned; no deltas above tolerance\n"
	if out != want {
		t.Fatalf("report not empty:\n%s", out)
	}
	// Byte-identical across invocations.
	_, again, _ := runDiff(t, dir, dir)
	if again != out {
		t.Fatalf("report not byte-identical across invocations:\n%s\n---\n%s", out, again)
	}
}

func TestPerturbedRunAttribution(t *testing.T) {
	base := writeDir(t, map[string]string{
		"bench.json":   benchJSON(t, 12000),
		"timeline.csv": timelineCSV(200000),
		"spans.json":   spanJSON(2000000),
		"metrics.prom": "tracklog_disk_seek_ms 179.5\n",
	})
	cur := writeDir(t, map[string]string{
		"bench.json":   benchJSON(t, 23000), // p99 +91.7%
		"timeline.csv": timelineCSV(1200000),
		"spans.json":   spanJSON(12000000),
		"metrics.prom": "tracklog_disk_seek_ms 329.1\n",
	})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{
		"p99", "REGRESSION",
		"== attribution (us per request) ==\n" +
			"trail/write: 1 -> 1 requests, mean 3000.000us -> 13000.000us, +10000.000us, residual +0.000us\n" +
			"    seek           +10000.000us\n== support ==\n",
		"    occupancy disk/log0/state/seek                        1e+07 ->        6e+07  +500.0%\n",
		"verdict: sync-write/trail/sparse/4096B p99 +91.7%: top attribution trail/write seek +10000.000us of +10000.000us per request\n",
		"telemetry tracklog_disk_seek_ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestUnexplainedRegression(t *testing.T) {
	base := writeDir(t, map[string]string{"bench.json": benchJSON(t, 12000)})
	cur := writeDir(t, map[string]string{"bench.json": benchJSON(t, 23000)})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "UNEXPLAINED") {
		t.Fatalf("verdict should flag UNEXPLAINED:\n%s", out)
	}
}

// TestBareBenchFiles is the CI bench gate: two bare benchfmt files, the
// tolerance flags, exit 1 on any regression or missing entry.
func TestBareBenchFiles(t *testing.T) {
	latency := func(p99 float64) *benchfmt.File {
		return &benchfmt.File{Seed: 1, Experiments: []benchfmt.Entry{
			{Name: "sync-write/trail/sparse/1KB", Count: 200, MeanUS: 2000, P50US: 1900, P99US: p99},
			{Name: "sync-write/std/sparse/1KB", Count: 200, MeanUS: 21000, P50US: 20000, P99US: 41000},
		}}
	}
	// A higher-is-better rate entry, as reproduce -json writes for simbench/*.
	rate := func(r float64) *benchfmt.File {
		return &benchfmt.File{Seed: 1, Experiments: []benchfmt.Entry{{
			Name: "simbench/trail", Count: 100, MeanUS: 2000, P50US: 1900, P99US: 4000,
			Rates: map[string]float64{"events_per_virtual_sec": r},
		}}}
	}
	stdOnly := latency(4000)
	stdOnly.Experiments = stdOnly.Experiments[1:]
	// An entry whose p50 is zero, as reproduce -json writes for table2/*.
	zeroP50 := func(p50 float64) *benchfmt.File {
		return &benchfmt.File{Seed: 1, Experiments: []benchfmt.Entry{
			{Name: "table2/trail", Count: 199, MeanUS: 56372, P50US: p50},
		}}
	}

	for _, tc := range []struct {
		name      string
		flags     []string
		base, cur *benchfmt.File
		code      int
		want      []string // substrings of stdout
	}{
		{"identical runs pass", nil, latency(4000), latency(4000), 0, []string{"verdict: ok"}},
		{"injected p99 regression fails", nil, latency(4000), latency(4800), 1, []string{"REGRESSION", "p99"}},
		{"within-tolerance regression passes", nil, latency(4000), latency(4300), 0, nil},
		{"tightened -p99-tol catches it", []string{"-p99-tol", "0.05"}, latency(4000), latency(4300), 1, []string{"REGRESSION"}},
		{"missing experiment fails", nil, latency(4000), stdOnly, 1, []string{"MISSING"}},
		{"rate drop fails", nil, rate(1000), rate(800), 1, []string{"REGRESSION", "events_per_virtual_sec", "1000 ->          800   -20.0%"}},
		{"rate rise passes", []string{"-rate-tol", "0.01"}, rate(1000), rate(1300), 0, nil},
		{"rate drop within default -rate-tol passes", nil, rate(1000), rate(950), 0, nil},
		{"tightened -rate-tol catches it", []string{"-rate-tol", "0.02"}, rate(1000), rate(950), 1, []string{"REGRESSION"}},
		{"negative -rate-tol disables the rate gate", []string{"-rate-tol", "-1"}, rate(1000), rate(1), 0, nil},
		{"regression from a zero baseline is unbounded and named", nil, zeroP50(0), zeroP50(3), 1,
			[]string{"table2/trail", "p50", "0.0us ->        3.0us    +Inf%  REGRESSION",
				"verdict: table2/trail p50 +Inf%: UNEXPLAINED"}},
		{"a zero-baseline regression in -json", []string{"-json"}, zeroP50(0), zeroP50(3), 1,
			[]string{`"metric": "p50"`, `"pct": null`, `"unbounded": "+inf"`, `"regressed": true`,
				`"verdict": "table2/trail p50 +Inf%: UNEXPLAINED`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath, curPath := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
			if err := tc.base.WriteFile(basePath); err != nil {
				t.Fatal(err)
			}
			if err := tc.cur.WriteFile(curPath); err != nil {
				t.Fatal(err)
			}
			code, out, _ := runDiff(t, append(tc.flags, basePath, curPath)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.code, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}

	t.Run("bad usage", func(t *testing.T) {
		if code, _, _ := runDiff(t, "only-one.json"); code != 2 {
			t.Fatalf("exit %d on one argument, want 2", code)
		}
		if code, _, _ := runDiff(t, "a.json", "b.json"); code != 2 {
			t.Fatalf("exit %d on unreadable files, want 2", code)
		}
	})
}

// A telemetry series that is NaN on exactly one side is a finding (NaN
// compares false against every tolerance, so it has to be asked for by
// name); NaN on both sides is equal, which keeps self-compare empty. The JSON
// report carries the same rows and exit status: a number JSON has no spelling
// for is null, and the row's "unbounded" says what its pct was.
func TestTelemetryNaN(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur string // metrics.prom
		code      int
		want      []string // substrings of stdout
		wantJSON  []string // substrings of -json stdout
	}{
		{"gauge turned NaN", "g 5\n", "g NaN\n", 1, []string{"telemetry g", "5 ->          NaN", "+Inf%"},
			[]string{`"base": 5`, `"cur": null`, `"pct": null`, `"unbounded": "+inf"`}},
		{"gauge recovered from NaN", "g NaN\n", "g 5\n", 1, []string{"telemetry g", "NaN ->            5", "+Inf%"},
			[]string{`"base": null`, `"cur": 5`, `"pct": null`, `"unbounded": "+inf"`}},
		{"gauge fell from zero", "g 0\n", "g -2\n", 1, []string{"telemetry g", "-Inf%"},
			[]string{`"base": 0`, `"cur": -2`, `"pct": null`, `"unbounded": "-inf"`}},
		{"NaN on both sides", "g NaN\n", "g NaN\n", 0, []string{"verdict: ok"}, []string{`"findings": 0`}},
		{"finite change still goes by tolerance", "g 100\n", "g 150\n", 1, []string{"+50.0%"}, []string{`"pct": 50`}},
		{"finite change inside tolerance", "g 100\n", "g 101\n", 0, []string{"verdict: ok"}, []string{`"findings": 0`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := writeDir(t, map[string]string{"metrics.prom": tc.base})
			cur := writeDir(t, map[string]string{"metrics.prom": tc.cur})
			for _, mode := range []struct {
				flags []string
				want  []string
			}{{nil, tc.want}, {[]string{"-json"}, tc.wantJSON}} {
				code, out, stderr := runDiff(t, append(mode.flags, base, cur)...)
				if code != tc.code {
					t.Fatalf("%v: exit %d, want %d; output:\n%s%s", mode.flags, code, tc.code, out, stderr)
				}
				for _, want := range mode.want {
					if !strings.Contains(out, want) {
						t.Errorf("%v: output missing %q:\n%s", mode.flags, want, out)
					}
				}
				if mode.flags != nil && (strings.Contains(out, `"unbounded"`) != strings.Contains(out, `"pct": null`) || !json.Valid([]byte(out))) {
					t.Errorf("-json: a null pct and an unbounded field go together, in valid JSON:\n%s", out)
				}
			}
		})
	}
}

// spanDump is a span dump of the given requests, each "kind start end
// phase:start:end ...", all on driver trail.
func spanDump(reqs ...string) string {
	var b strings.Builder
	b.WriteString(`{"version":1,"dropped":0,"requests":[`)
	for i, r := range reqs {
		f := strings.Fields(r)
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"kind":%q,"driver":"trail","dev":"data0","lba":0,"count":8,"start_ns":%s,"end_ns":%s,"err":0,"spans":[`, i+1, f[0], f[1], f[2])
		for j, s := range f[3:] {
			p := strings.Split(s, ":")
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"phase":%q,"start_ns":%s,"end_ns":%s,"a":0,"b":0}`, p[0], p[1], p[2])
		}
		b.WriteString("]}")
	}
	b.WriteString("]}\n")
	return b.String()
}

// The attribution is the difference of the two span budgets per request: a
// phase's change in total over the group's count, a phase absent on one side
// counted as zero there, and a residual for time no span covers, so the rows
// and the residual add up to the change in mean latency. Client groups print
// first, a group on one side only is a note, and the verdict names the
// largest row of the client group whose mean moved most.
func TestSpanPhaseAttribution(t *testing.T) {
	base := writeDir(t, map[string]string{"spans.json": spanDump(
		"write 0 3000 seek:0:2000 transfer:2000:3000",
		"write 0 5000 queue:0:2000 seek:2000:4000 transfer:4000:5000",
		"writeback 0 9000 seek:0:9000",
		"recover 0 100 locate:0:100",
	)})
	cur := writeDir(t, map[string]string{"spans.json": spanDump(
		"write 0 3000 seek:0:2000 transfer:2000:3000",
		"write 0 4000 seek:0:2000 rotwait:2000:3000 transfer:3000:4000",
		"write 0 11000 seek:0:10000 transfer:10000:11000",
		"writeback 0 9000 seek:0:8000",
		"read 0 7 staging:0:0",
	)})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	want := `== attribution (us per request) ==
trail/write: 2 -> 3 requests, mean 4.000us -> 6.000us, +2.000us, residual +0.000us
    seek               +2.667us
    queue              -1.000us
    rotwait            +0.333us
trail/writeback: 1 -> 1 requests, mean 9.000us -> 9.000us, +0.000us, residual +1.000us
    seek               -1.000us
note: span group trail/recover in base run only
note: span group trail/read in current run only
verdict: no benchmark regression; top behavioral delta trail/write seek +2.667us of +2.000us per request
`
	if out != want {
		t.Errorf("report:\n%s\nwant:\n%s", out, want)
	}
	code, out, _ = runDiff(t, "-json", base, cur)
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); code != 1 || err != nil || len(rep.Attribution) != 2 {
		t.Fatalf("-json: exit %d, %v, %d groups:\n%s", code, err, len(rep.Attribution), out)
	}
	for _, a := range rep.Attribution {
		sum := a.ResidualUS
		for _, p := range a.Phases {
			sum += p.DeltaUS
		}
		if math.Abs(sum-a.DeltaUS) > 1e-3 || math.Abs(a.CurMeanUS-a.BaseMeanUS-a.DeltaUS) > 1e-3 {
			t.Errorf("%s: rows and residual sum to %.6fus, mean moved %.6fus", a.Group, sum, a.DeltaUS)
		}
	}
}

func TestBehavioralDeltaWithoutBench(t *testing.T) {
	base := writeDir(t, map[string]string{"spans.json": spanJSON(2000000)})
	cur := writeDir(t, map[string]string{"spans.json": spanJSON(12000000)})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: no benchmark regression; top behavioral delta trail/write seek +10000.000us of +10000.000us per request\n") {
		t.Fatalf("verdict:\n%s", out)
	}
}

// Timeline series are support rows under the 10% rule, occupancy included,
// and a negative latency tolerance takes that metric out of the gate.
func TestTolerancesDisableFindings(t *testing.T) {
	base := writeDir(t, map[string]string{"timeline.csv": timelineCSV(200000)})
	if code, out, _ := runDiff(t, base, writeDir(t, map[string]string{"timeline.csv": timelineCSV(219000)})); code != 0 {
		t.Errorf("a 9.5%% occupancy change: exit %d, want 0:\n%s", code, out)
	}
	code, out, _ := runDiff(t, base, writeDir(t, map[string]string{"timeline.csv": timelineCSV(220000)}))
	if code != 1 || !strings.Contains(out, "    occupancy disk/log0/state/seek                        1e+07 ->      1.1e+07   +10.0%\n") ||
		!strings.Contains(out, "verdict: no benchmark regression; 1 support delta(s) above tolerance\n") {
		t.Errorf("a 10%% occupancy change: exit %d, want 1 and a support row:\n%s", code, out)
	}
	base = writeDir(t, map[string]string{"bench.json": benchJSON(t, 12000)})
	cur := writeDir(t, map[string]string{"bench.json": benchJSON(t, 23000)})
	if code, out, _ := runDiff(t, "-p99-tol", "-1", base, cur); code != 0 {
		t.Errorf("-p99-tol -1: exit %d, want 0:\n%s", code, out)
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	if code, _, _ := runDiff(t); code != 2 {
		t.Fatalf("no args: want exit 2")
	}
	if code, _, stderr := runDiff(t, "/nonexistent-a", "/nonexistent-b"); code != 2 || !strings.Contains(stderr, "rundiff:") {
		t.Fatalf("missing paths: want exit 2 with error, got %d %q", code, stderr)
	}
	empty := t.TempDir()
	if code, _, stderr := runDiff(t, empty, empty); code != 2 || !strings.Contains(stderr, "no run artifacts") {
		t.Fatalf("empty dir: want exit 2 no-artifacts error, got %d %q", code, stderr)
	}
	// Duplicate telemetry metric: load error with line number.
	dup := writeDir(t, map[string]string{"metrics.prom": "m 1\nm 2\n"})
	if code, _, stderr := runDiff(t, dup, dup); code != 2 || !strings.Contains(stderr, "duplicate metric") {
		t.Fatalf("duplicate prom: want exit 2, got %d %q", code, stderr)
	}
}

// One run directory prints its span budget, tail and prediction audit and
// exits 0; each flag, which configures a comparison, exits 2 with one
// directory (the tolerances once were silently ignored there), and so do a bare benchfmt file, an empty directory and a predict event whose
// args do not decode.
func TestOneRunDirectory(t *testing.T) {
	predict := `{"name":"predict","cat":"sim","ph":"i","ts":5.000,"pid":1,"tid":1,"s":"t","args":{"lba":12,"count":60,"a":1,"b":%d}}`
	dir := writeDir(t, map[string]string{
		"spans.json": spanJSON(2000000),
		"trace.json": traceJSON(enqueue, fmt.Sprintf(predict, 300000), fmt.Sprintf(predict, 250000)),
	})
	code, out, stderr := runDiff(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0: %s", code, stderr)
	}
	for _, want := range []string{
		"span budget: trail/write — 1 requests, 0 errors\n",
		"tail explainer: slowest 1 of 1 requests (5.0%)\n",
		"prediction audit: 2 predictions, 0 mispredicted (0.00%)\n",
		"  slack sectors:   1:2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if i, j, k := strings.Index(out, "span budget:"), strings.Index(out, "tail explainer:"), strings.Index(out, "prediction audit:"); i != 0 || j < i || k < j {
		t.Errorf("blocks out of order (budget, tail, audit):\n%s", out)
	}
	for _, flags := range [][]string{{"-json"}, {"-mean-tol", "0.2"}, {"-p50-tol", "0.2"}, {"-p99-tol", "0.2"}, {"-rate-tol", "0.2"}} {
		if code, out, _ := runDiff(t, append(flags, dir)...); code != 2 || out != "" {
			t.Errorf("%s DIR: exit %d, stdout %q; want 2 and nothing", flags[0], code, out)
		}
	}
	bare := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(bare, []byte(benchJSON(t, 12000)), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := writeDir(t, map[string]string{"trace.json": traceJSON(strings.Replace(predict, `"b":%d`, `"b":"x"`, 1))})
	for name, arg := range map[string]string{"bare file": bare, "empty dir": t.TempDir(), "bad predict": bad} {
		if code, out, stderr := runDiff(t, arg); code != 2 || out != "" || !strings.Contains(stderr, "rundiff:") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 2, nothing and an error", name, code, out, stderr)
		}
	}
}

func TestJSONReport(t *testing.T) {
	base := writeDir(t, map[string]string{"bench.json": benchJSON(t, 12000), "timeline.csv": timelineCSV(200000), "spans.json": spanJSON(2000000)})
	cur := writeDir(t, map[string]string{"bench.json": benchJSON(t, 23000), "timeline.csv": timelineCSV(1200000), "spans.json": spanJSON(12000000)})
	code, out, _ := runDiff(t, "-json", base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{`"metric": "p99"`, `"group": "trail/write"`, `"delta_us": 10000,`, `"residual_us": 0,`,
		`"name": "seek"`, `"kind": "occupancy"`, `"series": "disk/log0/state/seek"`, `"verdict"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q:\n%s", want, out)
		}
	}
}

// traceJSON is a trace.json on track log0 holding events, the bytes
// trace.ChromeWriter writes.
func traceJSON(events ...string) string {
	return `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"tracklog-sim"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"log0"}}` + strings.Join(append([]string{""}, events...), ",\n") + `
]}
`
}

// enqueue is an instant event at t=0; seek(us) is a seek of us microseconds
// at t=10us.
const enqueue = `{"name":"enqueue","cat":"sim","ph":"i","ts":0.000,"pid":1,"tid":1,"s":"t","args":{"lba":8,"count":1,"a":1,"b":1}}`

func seek(us string) string {
	return `{"name":"seek","cat":"sim","ph":"X","ts":10.000,"dur":` + us + `,"pid":1,"tid":1,"args":{"lba":8,"count":1,"a":0,"b":0}}`
}

// The first-divergence line is informational: it names the first event
// where the streams part, or says they are identical, and never moves the
// exit status.
func TestFirstDivergence(t *testing.T) {
	base := writeDir(t, map[string]string{"trace.json": traceJSON(enqueue, seek("1.700"))})
	for _, tc := range []struct {
		name string
		cur  map[string]string
		want string
	}{
		{"identical", map[string]string{"trace.json": traceJSON(enqueue, seek("1.700"))},
			"first divergence: event streams identical\n"},
		{"seek derated", map[string]string{"trace.json": traceJSON(enqueue, seek("15.300"))},
			`first divergence: event 1 at 10.000us on log0: seek dur 1.700us {"lba":8,"count":1,"a":0,"b":0} -> seek dur 15.300us {"lba":8,"count":1,"a":0,"b":0}` + "\n"},
		{"one side ends early", map[string]string{"trace.json": traceJSON(enqueue)},
			`first divergence: event 1 at 10.000us on log0: seek dur 1.700us {"lba":8,"count":1,"a":0,"b":0} -> end of trace` + "\n"},
		{"trace on one side only", map[string]string{"metrics.prom": "m 1\n"},
			"note: trace present on one side only; first divergence skipped\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, stderr := runDiff(t, base, writeDir(t, tc.cur))
			if code != 0 || !strings.Contains(out, tc.want) {
				t.Errorf("exit %d, want 0; output lacks %q:\n%s%s", code, tc.want, out, stderr)
			}
		})
	}
}

// FuzzRunDiffLoad feeds arbitrary bytes through every artifact loader via
// loadArtifacts: the contract is no panics, and every failure wraps the
// errBadRun sentinel.
func FuzzRunDiffLoad(f *testing.F) {
	f.Add([]byte("# tracklog-timeline v1 bucket_ns=10 end_ns=100\ncomponent,track,series,kind,bucket,value\n"),
		[]byte(`{"version":1,"dropped":0,"requests":[]}`),
		[]byte("m 1\n"),
		[]byte(`{"writes_per_process":1,"seed":1,"experiments":[]}`),
		[]byte(traceJSON(enqueue, seek("1.700"))))
	f.Add([]byte("garbage"), []byte("{"), []byte("m 1\nm 2\n"), []byte("[]"), []byte(`{"traceEvents":[]}`))
	f.Add([]byte(""), []byte(`{"version":2}`), []byte("novalue"), []byte("null"), []byte(traceJSON(enqueue, seek("-1.700"))))
	f.Fuzz(func(t *testing.T, tl, spans, prom, bench, trace []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"timeline.csv": tl, "spans.json": spans, "metrics.prom": prom, "bench.json": bench, "trace.json": trace,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		a, err := loadArtifacts(dir)
		if err != nil {
			if !errors.Is(err, errBadRun) {
				t.Fatalf("load error does not wrap errBadRun: %v", err)
			}
			return
		}
		// Loaded cleanly: comparing the run with itself must not panic and
		// must report zero findings.
		if rep := compare(a, a, benchfmt.Tolerance{}); rep.Findings != 0 {
			t.Fatalf("self-compare found %d findings", rep.Findings)
		}
	})
}
