package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildTrailcheck compiles the driver once per test binary.
func buildTrailcheck(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trailcheck")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building trailcheck: %v\n%s", err, out)
	}
	return bin
}

// repoRoot returns the module root (tests run in cmd/trailcheck).
func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd))
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if ok := errorsAs(err, &ee); ok {
		return ee.ExitCode()
	}
	t.Fatalf("running trailcheck: %v", err)
	return -1
}

func errorsAs(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// TestExitNonzeroOnBadPackage: a synthetic package full of violations must
// fail the gate.
func TestExitNonzeroOnBadPackage(t *testing.T) {
	bin := buildTrailcheck(t)
	cmd := exec.Command(bin, "./internal/lint/testdata/src/tracklog/internal/trail")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if len(out) == 0 {
		t.Fatal("expected diagnostics on stderr")
	}
}

// TestExitZeroOnCleanPackage: a real, clean package passes.
func TestExitZeroOnCleanPackage(t *testing.T) {
	bin := buildTrailcheck(t)
	cmd := exec.Command(bin, "./internal/geom")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, out)
	}
}

// TestJSONOutput: -json emits machine-readable file/line/analyzer/message
// records, stable for diffing across PRs.
func TestJSONOutput(t *testing.T) {
	bin := buildTrailcheck(t)
	cmd := exec.Command(bin, "-json", "./internal/lint/testdata/src/tracklog/internal/trail")
	cmd.Dir = repoRoot(t)
	stdout, err := cmd.Output()
	if code := exitCode(t, err); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout, &diags); err != nil {
		t.Fatalf("parsing -json output: %v\n%s", err, stdout)
	}
	if len(diags) == 0 {
		t.Fatal("expected findings in JSON output")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Fatalf("incomplete JSON diagnostic: %+v", d)
		}
		if d.Analyzer != "virtualtime" {
			t.Fatalf("unexpected analyzer %q on the virtualtime fixture", d.Analyzer)
		}
	}
}

// TestAnalyzerSubset: -analyzers restricts the run.
func TestAnalyzerSubset(t *testing.T) {
	bin := buildTrailcheck(t)
	cmd := exec.Command(bin, "-analyzers", "determinism", "./internal/lint/testdata/src/tracklog/internal/trail")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit code = %d, want 0 (fixture has no determinism findings)\n%s", code, out)
	}
}
