package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tracklog/internal/benchfmt"
	"tracklog/internal/trace"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// runIn runs trailsim with args inside a fresh directory, so relative export
// paths (and stdout's echo of them) match a run from any checkout, and
// returns stdout, stderr and the directory's files.
func runIn(t *testing.T, args ...string) (stdout, stderr []byte, files map[string][]byte) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("trailsim %v: exit %d: %s", args, code, &errOut)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	files = map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return out.Bytes(), errOut.Bytes(), files
}

// TestTraceSmokeGolden pins every artefact of the observed `-writes 50
// -seed 7` run — Chrome trace, registry, timeline, span trees, bench summary
// and stdout — to its length and digest, for the Trail system and the
// baseline, recorded at a713434; stdout re-pinned when Elapsed began
// counting a first issue at t=0 (its elapsed and throughput line moved),
// again when one -out flag replaced the per-file flags (a bench summary line
// was added and the spans line moved ahead of the span budget), and when the
// span budget, tail explainer and prediction audit moved to `rundiff DIR`
// (they left stdout; the Trail trace keeps its length, each predict event
// now follows its record write's disk events); metrics.prom re-pinned when
// every layer's Stats began reaching the registry through Counts (HELP text
// changed, and the disk, sched and kernel series that rendered a Stats
// duration or peak as a gauge became _us/_total counters), and again when
// every gauge became an entry of its layer's Levels (gauge HELP lines only).
// A change that moves any byte here on purpose updates the pin and says so.
// The trace is also read back through trace.ReadChrome, so it stays
// loadable.
func TestTraceSmokeGolden(t *testing.T) {
	for _, tc := range []struct {
		system string
		want   map[string]string
	}{
		{"trail", map[string]string{
			"trace.json":   "240532 bytes 0c294704ef1bbdf1",
			"metrics.prom": "10712 bytes 39bafb3dfeeb8881",
			"timeline.csv": "71201 bytes 7609ac0cc505d305",
			"spans.json":   "56802 bytes 23c55f7ca873ce28",
			"bench.json":   "197 bytes 12d21c8556a3748c",
			"stdout":       "979 bytes 0cf6d9e9e618dd00",
		}},
		{"std", map[string]string{
			"trace.json":   "128346 bytes b96de04d7a287c2c",
			"metrics.prom": "6044 bytes 4c20c19086da2aa3",
			"timeline.csv": "36595 bytes 10356d28533041d7",
			"spans.json":   "28191 bytes e3b88dca2268ca46",
			"bench.json":   "197 bytes dc3bd0596f2cc0fd",
			"stdout":       "357 bytes fbb1970a51d29e85",
		}},
	} {
		t.Run(tc.system, func(t *testing.T) {
			out, _, files := runIn(t, "-system", tc.system, "-writes", "50", "-seed", "7", "-out", ".")
			files["stdout"] = out
			if len(files) != len(tc.want) {
				t.Errorf("wrote %d files, want %d", len(files)-1, len(tc.want)-1)
			}
			for name, want := range tc.want {
				if got := digest(files[name]); got != want {
					t.Errorf("%s: %s, want %s", name, got, want)
				}
			}
			if _, err := trace.ReadChrome(bytes.NewReader(files["trace.json"])); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestChaosSoakGolden is the chaos soak: open-loop overload with QoS on, a
// latent write error and a timeout injected, with and without a deadline.
// Each run must exit 0 and read back every acknowledged write intact, and
// its stdout is pinned to its length and digest, recorded at e3146b1 and
// re-pinned when Elapsed began counting a first issue at t=0 (its elapsed
// line moved).
func TestChaosSoakGolden(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		acked  int
		stdout string
	}{
		{[]string{"-seed", "11"}, 214, "1136 bytes b0b598d2e12ec68b"},
		{[]string{"-deadline", "200ms", "-seed", "12"}, 254, "1136 bytes 785851722bbd2980"},
	} {
		args := append([]string{"-offered-load", "3000", "-writes", "400", "-qos", "-verify",
			"-faults", "wlatent=2,timeout=1"}, tc.args...)
		out, _, _ := runIn(t, args...)
		if want := fmt.Sprintf("verify: all %d acknowledged targets intact\n", tc.acked); !bytes.Contains(out, []byte(want)) {
			t.Errorf("%v: no %q line in\n%s", tc.args, strings.TrimSpace(want), out)
		}
		if got := digest(out); got != tc.stdout {
			t.Errorf("%v: stdout %s, want %s", tc.args, got, tc.stdout)
		}
	}
}

// TestBadSizeExitsWithError: a write size that is not a positive sector
// multiple, a negative process or write count, or a flag the chosen mode
// would ignore is refused with exit status 1 and an error on stderr, on
// every path that takes it. Each of the sizes once panicked (a negative
// make, a negative Int64n bound, a division by a zero sector count) or, for
// 1000 bytes under -pattern, silently wrote one sector; each of the counts
// ran no write and printed NaN throughput; and each ignored flag once
// exited 0: -verify without -offered-load and under -pattern verified
// nothing, -faults under -pattern ran fault-free, -procs outside the sync
// mode and -pattern, -seed and -size under -replay changed nothing. The
// -replay rows run without the -writes prefix, which -replay does not read.
// A write one sector larger than the 19 380 000-sector data disk once
// panicked drawing a target from no slots (sync, -offered-load, uniform),
// divided by zero (zipf) or allocated the whole write (sequential); those
// rows need a 64-bit int to parse.
func TestBadSizeExitsWithError(t *testing.T) {
	replayFile := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(replayFile, []byte("0 W 100 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"-size", "-512"},
		{"-offered-load", "1000", "-size", "-512"},
		{"-pattern", "uniform", "-size", "0"},
		{"-pattern", "zipf", "-size", "0"},
		{"-pattern", "sequential", "-size", "-512"},
		{"-pattern", "uniform", "-size", "1000"},
		{"-procs", "-1"},
		{"-writes", "-3"},
		{"-offered-load", "1000", "-writes", "-3"},
		{"-verify"},
		{"-pattern", "uniform", "-faults", "latent=3,timeout=1"},
		{"-offered-load", "1000", "-procs", "4"},
		{"-pattern", "zipf", "-procs", "4"},
		{"-pattern", "zipf", "-offered-load", "1000", "-verify"},
		{"-replay", replayFile, "-pattern", "zipf"},
		{"-replay", replayFile, "-seed", "9", "-size", "4096"},
	}
	if strconv.IntSize == 64 {
		overDevice := strconv.FormatInt((19380000+1)*512, 10)
		rows = append(rows,
			[]string{"-size", overDevice},
			[]string{"-offered-load", "1000", "-size", overDevice},
			[]string{"-pattern", "uniform", "-size", overDevice},
			[]string{"-pattern", "zipf", "-size", overDevice},
			[]string{"-pattern", "sequential", "-size", overDevice},
		)
	}
	for _, args := range rows {
		t.Run(strings.ReplaceAll(strings.Join(args, " "), replayFile, "TRACE"), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trailsim %v panicked: %v", args, r)
				}
			}()
			if args[0] != "-replay" {
				args = append([]string{"-writes", "5"}, args...)
			}
			var out, errOut bytes.Buffer
			code := run(args, &out, &errOut)
			if code != 1 || !strings.Contains(errOut.String(), "trailsim: ") {
				t.Errorf("trailsim %v: exit %d, stderr %q; want exit 1 and an error", args, code, &errOut)
			}
		})
	}
}

// TestEveryModeWritesBench: each mode's -out bench.json holds one entry per
// latency summary it prints, named after the mode and the system, whose
// count is the n= that summary printed.
func TestEveryModeWritesBench(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(traceFile, []byte("0 W 100 2\n1000 R 100 2\n2000 W 5000 8\n4000 W 9000 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want map[string]string // entry name -> stdout line prefix that precedes its n=
	}{
		{[]string{"-writes", "20"}, map[string]string{"sync-write/trail/sparse/1024B": "latency: "}},
		{[]string{"-system", "std", "-offered-load", "2000", "-writes", "60", "-qos", "-max-depth", "2"},
			map[string]string{"open-loop/std/1024B": "acked latency: "}},
		{[]string{"-pattern", "zipf", "-writes", "40"},
			map[string]string{"replay/trail/write": "writes: ", "replay/trail/read": "reads:  "}},
		{[]string{"-system", "std", "-replay", traceFile},
			map[string]string{"replay/std/write": "writes: ", "replay/std/read": "reads:  "}},
	} {
		t.Run(strings.ReplaceAll(strings.Join(tc.args, " "), traceFile, "TRACE"), func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-out", dir}, tc.args...)
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("trailsim %v: exit %d: %s", args, code, &errOut)
			}
			bf, err := benchfmt.ReadFile(filepath.Join(dir, "bench.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(bf.Experiments) != len(tc.want) {
				t.Errorf("%d entries, want %d: %+v", len(bf.Experiments), len(tc.want), bf.Experiments)
			}
			for name, prefix := range tc.want {
				e := bf.Entry(name)
				if e == nil {
					t.Errorf("no entry %s in %+v", name, bf.Experiments)
					continue
				}
				m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(prefix) + `n=([0-9]+) `).FindStringSubmatch(out.String())
				if m == nil || m[1] != strconv.FormatInt(e.Count, 10) || e.Count == 0 {
					t.Errorf("%s: count %d, stdout %q line %v\n%s", name, e.Count, prefix, m, &out)
				}
			}
		})
	}
}

// The header reports the configuration that ran, defaults filled in, not the
// flag values.
func TestHeaderShowsDefaultedConfig(t *testing.T) {
	out, _, _ := runIn(t, "-procs", "0", "-writes", "0", "-size", "0")
	if want := "trail / sparse / 1024B x 100 writes x 1 procs\n"; !strings.HasPrefix(string(out), want) {
		t.Errorf("header %q, want %q", strings.SplitAfter(string(out), "\n")[0], want)
	}
}

// Under -faults every mode that takes it prints the system's fault counters:
// the plans' trigger counts merged with the Trail driver's fault-handling
// counters, or with the baseline device's retries and failures. The
// baseline's stddisk counters were once left off.
func TestFaultLineNamesTheSystemsCounters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-faults", "latent=3,timeout=2", "-writes", "60", "-seed", "3"},
			[]string{"fault.commands=", "trail.log_write_retries=", "trail.failed_writes="}},
		{[]string{"-system", "std", "-faults", "latent=3,timeout=2", "-writes", "60", "-seed", "3"},
			[]string{"fault.commands=", "stddisk.retries=", "stddisk.failures="}},
		{[]string{"-system", "std", "-offered-load", "1000", "-faults", "timeout=1", "-writes", "40"},
			[]string{"fault.commands=", "stddisk.retries=", "stddisk.failures="}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, _, _ := runIn(t, tc.args...)
			_, faults, ok := strings.Cut(string(out), "\nfaults (")
			if !ok {
				t.Fatalf("no faults line in\n%s", out)
			}
			for _, name := range tc.want {
				if !strings.Contains(faults, " "+name) && !strings.Contains(faults, "\n"+name) {
					t.Errorf("faults line lacks %s:\n%s", name, faults)
				}
			}
		})
	}
}
