package tracklog_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// examplePins is each example's stdout, as length and FNV-64a, recorded at
// e89468f. Every example is deterministic, so a change that moves a figure
// one prints (a tpmC, a latency, a recovery time) fails here; a change that
// moves it on purpose updates the pin and says why.
var examplePins = map[string]string{
	"batching":   "491 bytes 48d5113e21e165c8",
	"database":   "193 bytes a0e877083bfeb36d",
	"quickstart": "280 bytes 19dd6e7a57433f83",
	"raid5":      "274 bytes d7ffe01c32c4f092",
	"recovery":   "607 bytes 0715f05a9853eedb",
}

// TestExamplesOutputPinned builds every example under examples/, runs each
// to a zero exit, and holds its stdout to its pin.
func TestExamplesOutputPinned(t *testing.T) {
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	if len(dirs) != len(examplePins) {
		t.Errorf("%d examples, %d pinned; pin every example's output", len(dirs), len(examplePins))
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, f := range dirs {
		name := filepath.Base(filepath.Dir(f))
		out, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		h := fnv.New64a()
		h.Write(out)
		if got := fmt.Sprintf("%d bytes %016x", len(out), h.Sum64()); got != examplePins[name] {
			t.Errorf("%s: stdout %s, want %s:\n%s", name, got, examplePins[name], out)
		}
	}
}
