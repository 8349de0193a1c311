// Command benchpairs runs the benchmark's paired protocol (bench/README.md,
// "Where host time went") for one workload: it checks REV out with git
// worktree add --detach under .bench_build/, runs bash bench/run.sh
// --workload W --seed S --trace 0 there and in the working tree, alternately,
// switching which side runs first each pair, and for every end-to-end metric
// of BENCHMARK.json prints both medians, the parent's quartile distance, how
// many pairs the change won and the verdict, then each pair's values. One
// ungated row follows the gated ones: host_cpu_us_per_op, read from the line
// each run prints for it.
//
// Usage:
//
//	go run ./cmd/benchpairs -ref REV -workload W [-seed S] [-n 10]
//
// Run it at the repository root; it needs no network. -ref names the parent
// (a commit, a branch, HEAD~1), -workload one of BENCHMARK.json's workloads,
// -seed the run seed (default 1) and -n the number of pairs (default 10).
// The worktree is removed when the runs end.
//
// A metric's verdict is "gain" when the change won at least 9 pairs in 10
// and its median beats the parent's by more than the parent's quartile
// distance, "loss" the same the other way, "tie" when the medians lie within
// that distance, and "unresolved" otherwise. A change whose median is worse
// than the parent's by more than the metric's bound is marked BEYOND BOUND.
//
// Exit status: 0, or 1 when a metric is beyond its bound, or 2 on a usage,
// checkout or run error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is what the tool reads of BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a benchmark run prints, with cpuMetric added to its
// metrics from the line the run prints for it.
type result struct {
	Correct bool                   `json:"correct"`
	Metrics map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
}

// cpuMetric is the host CPU time a run spends per operation. No bound gates
// it, so the result line leaves it out.
var cpuMetric = metricSpec{Name: "host_cpu_us_per_op", Unit: "us", Better: "lower", Bound: math.Inf(1)}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ref := fs.String("ref", "", "the parent revision the working tree is measured against")
	workload := fs.String("workload", "", "the BENCHMARK.json workload to run")
	seed := fs.Uint64("seed", 1, "the benchmark's run seed")
	n := fs.Int("n", 10, "the number of alternating pairs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchpairs:", err)
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(fmt.Errorf("%w (run it at the repository root)", err))
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	known := false
	for _, w := range sp.Workloads {
		known = known || w.Name == *workload
	}
	if *ref == "" || *n < 1 || !known {
		return fail(errors.New("usage: benchpairs -ref REV -workload W [-seed S] [-n N], W a workload of BENCHMARK.json"))
	}

	dir := filepath.Join(".bench_build", "ref")
	// A checkout left by an interrupted run goes first; there usually is none,
	// and then removing it fails harmlessly.
	_, _ = git("worktree", "remove", "--force", dir)
	if out, err := git("worktree", "add", "--detach", dir, *ref); err != nil {
		return fail(fmt.Errorf("git worktree add %s: %v\n%s", *ref, err, out))
	}
	defer func() {
		if out, err := git("worktree", "remove", "--force", dir); err != nil {
			fmt.Fprintf(stderr, "benchpairs: git worktree remove %s: %v\n%s", dir, err, out)
		}
	}()

	bench := []string{"bench/run.sh", "--workload", *workload, "--seed", fmt.Sprint(*seed), "--trace", "0"}
	var refRuns, headRuns []result
	for i := range *n {
		sides := []struct {
			name, dir string
			runs      *[]result
		}{{"ref", dir, &refRuns}, {"head", ".", &headRuns}}
		if i%2 == 1 {
			slices.Reverse(sides)
		}
		for _, s := range sides {
			fmt.Fprintf(stderr, "pair %d/%d: %s\n", i+1, *n, s.name)
			res, err := runBench(s.dir, bench, stderr)
			if err != nil {
				return fail(fmt.Errorf("pair %d, %s: %w", i+1, s.name, err))
			}
			*s.runs = append(*s.runs, res)
		}
	}
	fmt.Fprintf(stdout, "%s, seed %d, %d pairs: %s against the working tree\n", *workload, *seed, *n, *ref)
	if report(stdout, append(sp.EndToEnd, cpuMetric), refRuns, headRuns) {
		return 1
	}
	return 0
}

// git runs git with args and returns its combined output.
func git(args ...string) ([]byte, error) {
	return exec.Command("git", args...).CombinedOutput()
}

// runBench runs the benchmark in dir and returns the result its last line
// holds.
func runBench(dir string, args []string, stderr io.Writer) (result, error) {
	cmd := exec.Command("bash", args...)
	cmd.Dir, cmd.Stderr = dir, stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	return parseResult(out)
}

// parseResult reads the result a run's output ends with, and cpuMetric from
// the line "<workload> host_cpu_us_per_op <value> us" before it.
func parseResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return result{}, errors.New("the run reports an incorrect result")
	}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(string(l)); len(f) == 4 && f[1] == cpuMetric.Name {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", cpuMetric.Name, err)
			}
			res.Metrics[cpuMetric.Name] = metricValue{v}
		}
	}
	return res, nil
}

// row is one metric's comparison over the pairs.
type row struct {
	refMedian, headMedian, refIQR float64
	wins                          int
	verdict                       string
	beyondBound                   bool
}

// compare holds the change's values of one metric to the parent's, pair by
// pair: ref[i] and head[i] ran side by side.
func compare(m metricSpec, ref, head []float64) row {
	r := row{refMedian: quantile(ref, 0.5), headMedian: quantile(head, 0.5)}
	r.refIQR = quantile(ref, 0.75) - quantile(ref, 0.25)
	sign := 1.0 // positive: the change is better
	if m.Better == "lower" {
		sign = -1
	}
	losses := 0
	for i := range ref {
		switch d := sign * (head[i] - ref[i]); {
		case d > 0:
			r.wins++
		case d < 0:
			losses++
		}
	}
	gap := sign * (r.headMedian - r.refMedian)
	decided := 10*max(r.wins, losses) >= 9*len(ref) && math.Abs(gap) > r.refIQR
	switch {
	case decided && gap > 0 && r.wins > losses:
		r.verdict = "gain"
	case decided && gap < 0 && losses > r.wins:
		r.verdict = "loss"
	case math.Abs(gap) <= r.refIQR:
		r.verdict = "tie"
	default:
		r.verdict = "unresolved"
	}
	r.beyondBound = -gap > m.Bound*math.Abs(r.refMedian)
	return r
}

// report prints the table and each pair's values, and reports whether a
// metric is beyond its bound.
func report(w io.Writer, metrics []metricSpec, refRuns, headRuns []result) bool {
	values := func(runs []result, name string) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = r.Metrics[name].Value
		}
		return out
	}
	beyond := false
	fmt.Fprintf(w, "%-20s %-9s %14s %14s %12s %6s  %s\n", "metric", "unit", "ref median", "head median", "ref IQR", "wins", "verdict")
	for _, m := range metrics {
		r := compare(m, values(refRuns, m.Name), values(headRuns, m.Name))
		mark := ""
		if math.IsInf(m.Bound, 1) {
			mark = ", ungated"
		}
		if r.beyondBound {
			mark, beyond = fmt.Sprintf(", BEYOND BOUND (%g%%)", 100*m.Bound), true
		}
		fmt.Fprintf(w, "%-20s %-9s %14.6g %14.6g %12.4g %3d/%-2d  %s%s\n",
			m.Name, m.Unit, r.refMedian, r.headMedian, r.refIQR, r.wins, len(refRuns), r.verdict, mark)
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "%s\n  ref  %s\n  head %s\n", m.Name, list(values(refRuns, m.Name)), list(values(headRuns, m.Name)))
	}
	return beyond
}

func list(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.6g", x)
	}
	return strings.Join(s, " ")
}

// quantile returns the q-quantile of xs, interpolated linearly between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
