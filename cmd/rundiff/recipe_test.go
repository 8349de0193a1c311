package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/span"
	"tracklog/internal/trace"
)

// TestTrailsimPairGolden runs rundiff's end-to-end recipe: three trailsim
// runs of 600 4 KB writes at seed 7, each writing its artefact set with
// -out, the third with the log disk's seek arm derated, then rundiff on the
// same-seed pair and on the perturbed pair. Both reports are pinned to their
// length and FNV-64a with their exit statuses, recorded at 18d5d33 and
// re-pinned when the first-divergence line joined them and when the span
// budget difference replaced the share-of-run ranking; a change that moves
// either on purpose updates the pin and says so. The perturbed report is
// README.md's worked example, byte for byte, and puts the log writer's track
// switches first. The derated seek is where the perturbed run's event stream
// first parts from the base run's.
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
	same := report("run-a", "run-b", 0, "95 bytes 567b4a6e0787594d")
	if again := report("run-a", "run-b", 0, "95 bytes 567b4a6e0787594d"); again != same {
		t.Errorf("same-seed report not byte-identical across invocations")
	}
	perturbed := report("run-a", "run-p", 1, "934 bytes 76b4f969d5dacb6e")
	if !regexp.MustCompile(`(?m)^trail/write: .*\n    trackswitch `).MatchString(perturbed) ||
		!strings.Contains(perturbed, "REGRESSION") {
		t.Errorf("perturbed report lacks a REGRESSION with trail/write trackswitch on top:\n%s", perturbed)
	}
	if readme := readmeExample(t); readme != perturbed {
		t.Errorf("README.md's worked example is not the perturbed report:\n%s\nwant:\n%s", readme, perturbed)
	}
	if !strings.Contains(same, "first divergence: event streams identical\n") ||
		!regexp.MustCompile(`(?m)^first divergence: event 866 at 373962\.693us on log0: seek dur 1700\.000us .* -> seek dur 15300\.000us `).MatchString(perturbed) {
		t.Errorf("first-divergence lines: same-seed pair\n%s\nperturbed pair\n%s", same, perturbed)
	}
}

// readmeExample returns the text block README.md shows after its
// `./rundiff base cur` command.
func readmeExample(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	i := strings.Index(readme, "./rundiff base cur")
	j := strings.Index(readme[max(i, 0):], "```text\n")
	if i < 0 || j < 0 {
		t.Fatal("README.md has no text block after ./rundiff base cur")
	}
	block := readme[i+j+len("```text\n"):]
	return block[:strings.Index(block, "```\n")]
}

// TestRunDirBlocks runs `rundiff DIR` on three simulator run directories and
// pins each block it prints to the length and FNV-64a of the block the
// simulator itself printed at 60f2b3f, when trailsim's -spans and
// -explain-tail 0.05 and clustersim's -explain-tail 0.05 made them from the
// live run: the span budget, tail and prediction audit of `trailsim -system
// trail -writes 50 -seed 7`, the budget and tail of the same run with
// -system std, and the tail of `clustersim -chaos shardkill=1@250ms -seed 11
// -verify`. The cluster run's budget, which no flag printed, was recorded
// when `rundiff DIR` took these blocks over; the cluster budget and tail were
// re-pinned once when a refused write's copies and a hedge-won read's primary
// were charged, which left no budget with unattributed time. The healthy
// Trail run predicts every landing with one sector of slack, and the killed
// shard's failover or a hedge around it shows among the cluster run's slowest
// requests.
func TestRunDirBlocks(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"tracklog/cmd/trailsim", "tracklog/cmd/clustersim").CombinedOutput(); err != nil {
		t.Fatalf("building the simulators: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name string
		args []string
		want [3]string // budget, tail, audit ("" when the block is absent)
		re   string    // a line the output must hold
	}{
		{"trail", []string{"trailsim", "-system", "trail", "-writes", "50", "-seed", "7"},
			[3]string{"1581 bytes 2b6ee09e728595e3", "663 bytes dc31bb7b5a5261ea", "161 bytes d79ce7ba22b37511"},
			`(?m)^prediction audit: 50 predictions, 0 mispredicted \(0\.00%\)\n(.*\n)*  slack sectors:   1:50\n`},
		{"std", []string{"trailsim", "-system", "std", "-writes", "50", "-seed", "7"},
			[3]string{"702 bytes e8dedc3772fe9309", "294 bytes 443ca9c3f3d4bda0", ""},
			`(?m)^span budget: std/write — 50 requests, 0 errors$`},
		{"cluster", []string{"clustersim", "-chaos", "shardkill=1@250ms", "-seed", "11", "-verify"},
			[3]string{"1090 bytes 67f5564123dfdf7a", "1934 bytes f15f7aa90f6510cb", ""},
			`(?m)^  #[0-9]+ .*(failed over to replica after shard failure|hedged to replica after slow primary)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.name)
			cmd := exec.Command(filepath.Join(dir, tc.args[0]), append(tc.args[1:], "-out", out)...)
			if b, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("%v: %v\n%s", tc.args, err, b)
			}
			code, text, stderr := runDiff(t, out)
			if code != 0 {
				t.Fatalf("rundiff DIR: exit %d: %s", code, stderr)
			}
			tail := strings.Index(text, "tail explainer:")
			audit := strings.Index(text, "prediction audit:")
			if audit < 0 {
				audit = len(text)
			}
			if tail < 0 || tail > audit {
				t.Fatalf("no tail block before the audit:\n%s", text)
			}
			for i, block := range []string{text[:tail], text[tail:audit], text[audit:]} {
				h := fnv.New64a()
				h.Write([]byte(block))
				got := fmt.Sprintf("%d bytes %016x", len(block), h.Sum64())
				if block == "" {
					got = ""
				}
				if got != tc.want[i] {
					t.Errorf("%s block: %q, want %q\n%s", [3]string{"budget", "tail", "audit"}[i], got, tc.want[i], block)
				}
			}
			if strings.Contains(text[:tail], "UNATTRIBUTED") {
				t.Errorf("a budget has unattributed time:\n%s", text[:tail])
			}
			if !regexp.MustCompile(tc.re).MatchString(text) {
				t.Errorf("output does not match %q:\n%s", tc.re, text)
			}
		})
	}
}

// TestAttributionCorpus holds the span-budget difference to four causes
// whose answer is known: from `trailsim -writes 600 -size 4096 -seed 7`,
// each perturbation must put its phase first among the trail/write rows,
// with no residual, and in every trail group the rows plus the residual
// must equal the change in mean latency to within 1 ns. The score is pinned
// at 4 of 4; the share-of-run ranking this replaced named 1. The base run
// also holds the prediction audit to the budget: the mean rotational wait
// the driver scored is the trail/write rotwait time per request.
func TestAttributionCorpus(t *testing.T) {
	dir := t.TempDir()
	trailsim := filepath.Join(dir, "trailsim")
	if out, err := exec.Command("go", "build", "-o", trailsim, "tracklog/cmd/trailsim").CombinedOutput(); err != nil {
		t.Fatalf("building trailsim: %v\n%s", err, out)
	}
	sim := func(name string, extra ...string) *artifacts {
		t.Helper()
		args := []string{"-writes", "600", "-size", "4096", "-seed", "7", "-out", name}
		cmd := exec.Command(trailsim, append(args, extra...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("trailsim %v: %v\n%s", extra, err, out)
		}
		a, err := loadArtifacts(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := sim("base")

	audit, err := trace.AuditEvents(base.Trace)
	if err != nil {
		t.Fatal(err)
	}
	writes := span.Analyze(base.Spans).Group("trail/write")
	var rotwait time.Duration
	for _, p := range writes.Phases {
		if p.Phase == span.PRotWait {
			rotwait = p.Total
		}
	}
	if audit.Predictions != writes.Count || audit.RotWait.Sum() != rotwait ||
		audit.RotWait.Mean().Round(time.Microsecond) != 346*time.Microsecond {
		t.Errorf("audit: %d predictions, %v scored wait; budget: %d writes, %v rotwait; want equal, 346us a write",
			audit.Predictions, audit.RotWait.Sum(), writes.Count, rotwait)
	}

	score := 0
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-seek-derate", "8000000"}, "trackswitch"},
		{[]string{"-procs", "4"}, "transfer"},
		{[]string{"-size", "8192"}, "transfer"},
		{[]string{"-faults", "timeout=3"}, "retry"},
	} {
		rep := compare(base, sim(strings.Join(tc.flags, ""), tc.flags...), benchfmt.Tolerance{})
		named := false
		for _, a := range rep.Attribution {
			if !strings.HasPrefix(a.Group, "trail/") {
				continue
			}
			sum := a.ResidualUS
			for _, p := range a.Phases {
				sum += p.DeltaUS
			}
			if math.Abs(sum-a.DeltaUS) > 1e-3 || a.ResidualUS != 0 {
				t.Errorf("%v %s: rows sum to %+.6fus, residual %+.6fus, mean moved %+.6fus",
					tc.flags, a.Group, sum-a.ResidualUS, a.ResidualUS, a.DeltaUS)
			}
			if a.Group == "trail/write" && len(a.Phases) > 0 {
				named = a.Phases[0].Phase == tc.want
				if !named {
					t.Errorf("%v: trail/write's first row is %s %+.3fus, want %s", tc.flags, a.Phases[0].Phase, a.Phases[0].DeltaUS, tc.want)
				}
			}
		}
		if named {
			score++
		}
	}
	if score != 4 {
		t.Errorf("the attribution names %d of 4 causes, want 4", score)
	}
}
