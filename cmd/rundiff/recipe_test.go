package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTrailsimPairGolden runs rundiff's end-to-end recipe: three trailsim
// runs of 600 4 KB writes at seed 7, each writing its artefact set with
// -out, the third with the log disk's seek arm derated, then rundiff on the
// same-seed pair and on the perturbed pair. Both reports are pinned to their
// length and FNV-64a, recorded at 18d5d33, with their exit statuses; a
// change that moves either on purpose updates the pin and says so.
func TestTrailsimPairGolden(t *testing.T) {
	dir := t.TempDir()
	trailsim := filepath.Join(dir, "trailsim")
	if out, err := exec.Command("go", "build", "-o", trailsim, "tracklog/cmd/trailsim").CombinedOutput(); err != nil {
		t.Fatalf("building trailsim: %v\n%s", err, out)
	}
	for _, run := range []struct {
		name  string
		extra []string
	}{{"run-a", nil}, {"run-b", nil}, {"run-p", []string{"-seek-derate", "8000000"}}} {
		args := append([]string{"-writes", "600", "-size", "4096", "-seed", "7", "-out", run.name}, run.extra...)
		cmd := exec.Command(trailsim, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("trailsim %v: %v\n%s", args, err, out)
		}
	}
	a, err := os.ReadFile(filepath.Join(dir, "run-a", "timeline.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "run-b", "timeline.csv")); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("same-seed timelines differ (err %v)", err)
	}

	report := func(base, cur string, wantCode int, wantDigest string) string {
		t.Helper()
		code, out, stderr := runDiff(t, filepath.Join(dir, base), filepath.Join(dir, cur))
		if code != wantCode {
			t.Errorf("rundiff %s %s: exit %d, want %d: %s", base, cur, code, wantCode, stderr)
		}
		h := fnv.New64a()
		h.Write([]byte(out))
		if got := fmt.Sprintf("%d bytes %016x", len(out), h.Sum64()); got != wantDigest {
			t.Errorf("rundiff %s %s: %s, want %s\n%s", base, cur, got, wantDigest, out)
		}
		return out
	}
	same := report("run-a", "run-b", 0, "53 bytes 1d5139b9b96108f3")
	if again := report("run-a", "run-b", 0, "53 bytes 1d5139b9b96108f3"); again != same {
		t.Errorf("same-seed report not byte-identical across invocations")
	}
	perturbed := report("run-a", "run-p", 1, "752 bytes 13010eb7a3450a3b")
	if !regexp.MustCompile(`(?m)^ 1\. occupancy disk/log0/state/(seek|rotate_wait) `).MatchString(perturbed) ||
		!strings.Contains(perturbed, "REGRESSION") {
		t.Errorf("perturbed report lacks a REGRESSION with the log disk's seek or rotation on top:\n%s", perturbed)
	}
}
