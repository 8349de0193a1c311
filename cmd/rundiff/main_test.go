package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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

func spanJSON(seekNS int64) string {
	return fmt.Sprintf(`{"version":1,"dropped":0,"requests":[
{"id":1,"kind":"write","driver":"trail","dev":"data0","lba":0,"count":8,"start_ns":0,"end_ns":100000000,"err":0,"spans":[{"phase":"seek","start_ns":0,"end_ns":%d,"a":0,"b":0}]}
]}
`, seekNS)
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
		"timeline.csv": timelineCSV(200000), // 1% seek share
		"metrics.prom": "tracklog_disk_seek_ms 179.5\n",
	})
	cur := writeDir(t, map[string]string{
		"bench.json":   benchJSON(t, 23000),  // p99 +91.7%
		"timeline.csv": timelineCSV(1200000), // 6% seek share
		"metrics.prom": "tracklog_disk_seek_ms 329.1\n",
	})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{
		"p99", "REGRESSION",
		" 1. occupancy disk/log0/state/seek",
		"in buckets [0,50)",
		"verdict: sync-write/trail/sparse/4096B p99 +91.7%: top attribution occupancy disk/log0/state/seek +5.00pp",
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

func TestSpanPhaseAttribution(t *testing.T) {
	base := writeDir(t, map[string]string{"spans.json": spanJSON(2000000)}) // 2% of latency
	cur := writeDir(t, map[string]string{"spans.json": spanJSON(12000000)}) // 12%
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "span      write/seek") || !strings.Contains(out, "+10.00pp") {
		t.Fatalf("span attribution missing:\n%s", out)
	}
}

func TestBehavioralDeltaWithoutBench(t *testing.T) {
	base := writeDir(t, map[string]string{"timeline.csv": timelineCSV(200000)})
	cur := writeDir(t, map[string]string{"timeline.csv": timelineCSV(1200000)})
	code, out, _ := runDiff(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "no benchmark regression; top behavioral delta occupancy disk/log0/state/seek") {
		t.Fatalf("verdict:\n%s", out)
	}
}

func TestTolerancesDisableFindings(t *testing.T) {
	base := writeDir(t, map[string]string{"timeline.csv": timelineCSV(200000)})
	cur := writeDir(t, map[string]string{"timeline.csv": timelineCSV(1200000)})
	// A 5pp shift passes under a 10pp floor.
	if code, out, _ := runDiff(t, "-occ-tol", "10", base, cur); code != 0 {
		t.Fatalf("occ-tol 10 should pass, got exit %d:\n%s", code, out)
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

func TestJSONReport(t *testing.T) {
	base := writeDir(t, map[string]string{"bench.json": benchJSON(t, 12000), "timeline.csv": timelineCSV(200000)})
	cur := writeDir(t, map[string]string{"bench.json": benchJSON(t, 23000), "timeline.csv": timelineCSV(1200000)})
	code, out, _ := runDiff(t, "-json", base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	for _, want := range []string{`"metric": "p99"`, `"series": "disk/log0/state/seek"`, `"delta_pp": 5`, `"verdict"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q:\n%s", want, out)
		}
	}
}

// FuzzRunDiffLoad feeds arbitrary bytes through every artifact loader via
// loadArtifacts: the contract is no panics, and every failure wraps the
// errBadRun sentinel.
func FuzzRunDiffLoad(f *testing.F) {
	f.Add([]byte("# tracklog-timeline v1 bucket_ns=10 end_ns=100\ncomponent,track,series,kind,bucket,value\n"),
		[]byte(`{"version":1,"dropped":0,"requests":[]}`),
		[]byte("m 1\n"),
		[]byte(`{"writes_per_process":1,"seed":1,"experiments":[]}`))
	f.Add([]byte("garbage"), []byte("{"), []byte("m 1\nm 2\n"), []byte("[]"))
	f.Add([]byte(""), []byte(`{"version":2}`), []byte("novalue"), []byte("null"))
	f.Fuzz(func(t *testing.T, tl, spans, prom, bench []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"timeline.csv": tl, "spans.json": spans, "metrics.prom": prom, "bench.json": bench,
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
		if rep := compare(a, a, benchfmt.Tolerance{}, 1); rep.Findings != 0 {
			t.Fatalf("self-compare found %d findings", rep.Findings)
		}
	})
}
