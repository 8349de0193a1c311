package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tracklog/internal/benchfmt"
	"tracklog/internal/experiments"
)

func reproduce(t *testing.T, sel func(string) ([]experiments.Section, error), args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, sel)
	return code, out.String(), errb.String()
}

// A failed section must not stop the report, must not exit 0, and must
// leave no -json file behind: a gate file missing a section's rows would
// read as those rows gone missing. The sections run at once, so the count
// of those that ran is atomic.
func TestFailedSectionExitsNonzeroAfterFinishing(t *testing.T) {
	var ran atomic.Int32
	ok := func(experiments.Sizing, uint64) (string, []benchfmt.Entry, error) {
		ran.Add(1)
		return "fine\n", []benchfmt.Entry{{Name: "ok"}}, nil
	}
	injected := func(string) ([]experiments.Section, error) {
		return []experiments.Section{
			{Key: "first", Title: "First", Run: ok},
			{Key: "broken", Title: "Broken", Run: func(experiments.Sizing, uint64) (string, []benchfmt.Entry, error) {
				return "", nil, errors.New("injected failure")
			}},
			{Key: "last", Title: "Last", Run: ok},
		}, nil
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	code, out, stderr := reproduce(t, injected, "-json", path)
	if code != 1 {
		t.Errorf("exit %d with a failed section, want 1", code)
	}
	if ran := ran.Load(); ran != 2 {
		t.Errorf("%d healthy sections ran, want both (the one after the failure too)", ran)
	}
	for _, want := range []string{"## First", "## Broken", "ERROR: injected failure", "## Last"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr, "broken: injected failure") || !strings.Contains(stderr, "1 of 3 sections failed") {
		t.Errorf("stderr does not name the failure:\n%s", stderr)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("-json wrote %s after a section failed (stat: %v)", path, err)
	}
}

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b string) string {
	h := fnv.New64a()
	h.Write([]byte(b))
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// quick is the one `reproduce -quick -json` run that TestQuickReportGolden
// and TestQuickJSONReproducesBaseline both read: the full catalogue is the
// slowest thing in this package, so it runs once.
var quick struct {
	once        sync.Once
	code        int
	out, stderr string
	json        []byte
	readErr     error
}

func quickRun(t *testing.T) {
	t.Helper()
	quick.once.Do(func() {
		dir, err := os.MkdirTemp("", "reproduce-quick")
		if err != nil {
			quick.readErr = err
			return
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "bench.json")
		quick.code, quick.out, quick.stderr = reproduce(t, experiments.Select, "-quick", "-json", path)
		if quick.code == 0 {
			quick.json, quick.readErr = os.ReadFile(path)
		}
	})
	if quick.code != 0 {
		t.Fatalf("exit %d\n%s", quick.code, quick.stderr)
	}
	if quick.readErr != nil {
		t.Fatal(quick.readErr)
	}
}

// TestQuickReportGolden pins the whole -quick report, recorded at d00f98d
// and re-pinned when the workloads' Elapsed began counting a first issue at
// t=0 (only the multi-log elapsed column moved), then when the gate sections
// were appended after the paper's, then when the page cache stopped losing
// an edit made during a page's write-back (only Table 3 and the
// utilization section, all at concurrency > 1, moved), then when Table 2's
// average response began charging each transaction the checkpoint its
// terminal ran before it (only Table 2's avg-resp column moved), then when
// the fault-tolerance comparison joined the catalogue as ext-faulttol (only
// that section was inserted), then when ext-faulttol's faults began to fire
// and again when its load became a fault world's (only that section moved
// each time), then when each B+tree took a latch for its operations (only
// Table 3 and the utilization section moved), then when fslite began to
// read and write through the buffer cache (only ext-fsmeta and
// ext-directlog moved): every section of the
// catalogue at its smoke sizing, each a same-seed artefact of the layers
// below it. A change that moves any byte here on purpose updates the pin and
// says so.
func TestQuickReportGolden(t *testing.T) {
	quickRun(t)
	if got, want := digest(quick.out), "15588 bytes de0abb68de7328b7"; got != want {
		t.Errorf("reproduce -quick: %s, want %s", got, want)
	}
}

// The same run's -json file must reproduce BENCH_trail.json byte for byte,
// which makes this test the bench gate. A change that moves a row on purpose
// regenerates the file (`go run ./cmd/reproduce -quick -json
// BENCH_trail.json`) and says so.
func TestQuickJSONReproducesBaseline(t *testing.T) {
	quickRun(t)
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trail.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(quick.json, want) {
		t.Error("reproduce -quick -json does not reproduce BENCH_trail.json")
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nope"},
		{"-only", "fig3,nope"},
		{"-quick", "-paper"},
		{"-no-such-flag"},
	} {
		code, out, stderr := reproduce(t, experiments.Select, args...)
		if code != 2 {
			t.Errorf("reproduce %v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("reproduce %v printed a report before rejecting its arguments:\n%s", args, out)
		}
		if stderr == "" {
			t.Errorf("reproduce %v: no diagnostic on stderr", args)
		}
	}
}

// -only runs exactly the named sections, and a section's body is the
// experiment's text followed by one newline, inside one fenced block. -json
// writes those sections' rows and no others, under the run's seed.
func TestOnlyRunsTheSelectedSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, out, stderr := reproduce(t, experiments.Select, "-only", "overload,table1,anatomy", "-quick", "-seed", "3", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if got := strings.Count(out, "\n## "); got != 3 {
		t.Errorf("%d sections in the report, want 3:\n%s", got, out)
	}
	// Catalogue order, not argument order.
	a, b := strings.Index(out, "## Section 5.1 — latency anatomy"), strings.Index(out, "## Table 1 — batched writes")
	if a < 0 || b < 0 || a > b || b > strings.Index(out, "## Gate — overload") {
		t.Errorf("sections missing or out of catalogue order:\n%s", out)
	}
	res, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if want := "```\n" + res.String() + "\n```\n"; !strings.Contains(out, want) {
		t.Errorf("Table 1 body is not the experiment's text:\n%s", out)
	}
	bf, err := benchfmt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, e := range bf.Experiments {
		rows = append(rows, e.Name)
	}
	if want := []string{"overload/qos=off/2.0x", "overload/qos=on/2.0x"}; !slices.Equal(rows, want) || bf.Seed != 3 {
		t.Errorf("-json wrote seed %d, rows %q; want seed 3, rows %q", bf.Seed, rows, want)
	}
}

// The sections run at once on GOMAXPROCS workers, and the bytes do not
// depend on how many: -quick's report and -json file at 1, 2 and 4 workers
// are those of the run above.
func TestQuickRunIdenticalAtEveryWorkerCount(t *testing.T) {
	quickRun(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		path := filepath.Join(t.TempDir(), "bench.json")
		code, out, stderr := reproduce(t, experiments.Select, "-quick", "-json", path)
		if code != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d\n%s", procs, code, stderr)
		}
		json, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out != quick.out || !bytes.Equal(json, quick.json) || stderr != quick.stderr {
			t.Errorf("GOMAXPROCS=%d: report, -json file or stderr differs from GOMAXPROCS=%d's", procs, runtime.GOMAXPROCS(0))
		}
	}
}

// Each failed section prints its ERROR in its own slot, whichever worker ran
// it and whenever it finished.
func TestFailedSectionsKeepTheirSlots(t *testing.T) {
	section := func(key string, fail bool) experiments.Section {
		return experiments.Section{Key: key, Title: strings.ToUpper(key), Run: func(experiments.Sizing, uint64) (string, []benchfmt.Entry, error) {
			if fail {
				return "", nil, errors.New(key + " failed")
			}
			return key + " ran", nil, nil
		}}
	}
	sel := func(string) ([]experiments.Section, error) {
		return []experiments.Section{section("a", true), section("b", false), section("c", true), section("d", false), section("e", false)}, nil
	}
	want := "## A\n\n```\nERROR: a failed\n```\n\n## B\n\n```\nb ran\n```\n\n## C\n\n```\nERROR: c failed\n```\n\n" +
		"## D\n\n```\nd ran\n```\n\n## E\n\n```\ne ran\n```\n\n"
	wantErr := "reproduce: a: a failed\nreproduce: c: c failed\nreproduce: 2 of 5 sections failed\n"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		code, out, stderr := reproduce(t, sel)
		if code != 1 || !strings.HasSuffix(out, want) || stderr != wantErr {
			t.Errorf("GOMAXPROCS=%d: exit %d, report ends\n%s\nstderr\n%s", procs, code, out[max(0, len(out)-len(want)):], stderr)
		}
	}
}
