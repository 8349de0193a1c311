package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"tracklog/internal/experiments"
)

func reproduce(t *testing.T, sel func(string) ([]experiments.Section, error), args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, sel)
	return code, out.String(), errb.String()
}

// A failed section must not stop the report, and must not exit 0.
func TestFailedSectionExitsNonzeroAfterFinishing(t *testing.T) {
	ran := 0
	ok := func(experiments.Sizing, uint64) (string, error) { ran++; return "fine\n", nil }
	injected := func(string) ([]experiments.Section, error) {
		return []experiments.Section{
			{Key: "first", Title: "First", Run: ok},
			{Key: "broken", Title: "Broken", Run: func(experiments.Sizing, uint64) (string, error) {
				return "", errors.New("injected failure")
			}},
			{Key: "last", Title: "Last", Run: ok},
		}, nil
	}
	code, out, stderr := reproduce(t, injected)
	if code != 1 {
		t.Errorf("exit %d with a failed section, want 1", code)
	}
	if ran != 2 {
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
}

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b string) string {
	h := fnv.New64a()
	h.Write([]byte(b))
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// TestQuickReportGolden pins the whole -quick report, recorded at d00f98d
// and re-pinned when the workloads' Elapsed began counting a first issue at
// t=0 (only the multi-log elapsed column moved): every section of the
// catalogue at its smoke sizing, each a same-seed artefact of the layers
// below it. A change that moves any byte here on purpose updates the pin and
// says so.
func TestQuickReportGolden(t *testing.T) {
	code, out, stderr := reproduce(t, experiments.Select, "-quick")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if got, want := digest(out), "12310 bytes 314c10a38e336ac1"; got != want {
		t.Errorf("reproduce -quick: %s, want %s", got, want)
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
// experiment's text followed by one newline, inside one fenced block.
func TestOnlyRunsTheSelectedSections(t *testing.T) {
	code, out, stderr := reproduce(t, experiments.Select, "-only", "table1,anatomy", "-quick")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if got := strings.Count(out, "\n## "); got != 2 {
		t.Errorf("%d sections in the report, want 2:\n%s", got, out)
	}
	// Catalogue order, not argument order.
	a, b := strings.Index(out, "## Section 5.1 — latency anatomy"), strings.Index(out, "## Table 1 — batched writes")
	if a < 0 || b < 0 || a > b {
		t.Errorf("sections missing or out of catalogue order:\n%s", out)
	}
	res, err := experiments.Table1(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "```\n" + res.String() + "\n```\n"; !strings.Contains(out, want) {
		t.Errorf("Table 1 body is not the experiment's text:\n%s", out)
	}
}
