package main

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// smokeConfig runs a workload at 1/50 of the benchmark's op counts: one
// warm-up rep and three measured reps.
func smokeConfig(t *testing.T) runConfig {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 1, reps: minReps, div: 50, outDir: t.TempDir(), exe: exe}
}

func loadTestSpec(t *testing.T) *benchSpec {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.audit(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, sc := range workloads {
		t.Run(sc.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			out, err := runWorkload(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res, err := report(&buf, spec, sc, cfg, out, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, buf.String())
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value <= 0 || math.IsInf(got.Value, 0) || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s = %+v (present %v)", m.Name, got, ok)
				}
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d metrics in the result, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(spec.EndToEnd))
			}
			if share := out.vals["failed_ops_share"]; share != 0 {
				t.Errorf("failed_ops_share = %v", share)
			}
			// tpcc_trail's virtual numbers jitter with a map's iteration
			// order today (README, "Known at seed"); the others must
			// repeat bit for bit.
			if exact := out.vals["virt_repeat_exact"]; exact != 1 && sc.name != "tpcc_trail" {
				t.Errorf("virt_repeat_exact = %v: same-seed reps differ in a virtual number", exact)
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	spec := loadTestSpec(t)
	sc := findWorkload("trail_burst")
	cfg := smokeConfig(t)
	cfg.trace = true
	out, err := runWorkload(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := report(&buf, spec, sc, cfg, out, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect:\n%s", buf.String())
	}
	if len(res.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics in the result, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(spec.PerLayer))
	}
	for _, name := range []string{"sim.sleep_ns_per_event", "trail.build_record_ns_per_op", "trail.phase.mechanical_share", "virt_recover_s"} {
		if out.vals[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out.vals[name])
		}
	}
	if out.vals["instr.virt_digest_equal"] != 1 {
		t.Error("attaching instruments changed a virtual number")
	}
	if _, err := os.Stat(cfg.outDir + "/trail_burst.spans.json"); err != nil {
		t.Error(err)
	}
}

func TestCompareHoldsRunBToRunA(t *testing.T) {
	spec := loadTestSpec(t)
	mk := func(allocs, p50 float64) map[string]*result {
		all := make(map[string]*result)
		for _, w := range spec.Workloads {
			r := &result{Metrics: map[string]metric{"virt_repeat_exact": {Value: 1}}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metric{Value: 1}
			}
			r.Metrics["host_allocs_per_op"] = metric{Value: allocs}
			r.Metrics["virt_op_p50_us"] = metric{Value: p50}
			all[w.Name] = r
		}
		return all
	}
	var buf bytes.Buffer
	if code := compare(&buf, spec, mk(1000, 5), mk(1010, 5)); code != 0 {
		t.Errorf("run B with 1%% more allocations rejected:\n%s", buf.String())
	}
	if code := compare(&buf, spec, mk(1000, 5), mk(1300, 5)); code == 0 {
		t.Error("run B with 30% more allocations accepted")
	}
	if code := compare(&buf, spec, mk(1000, 5), mk(1000, 5.0001)); code == 0 {
		t.Error("run B with a different virtual number accepted on a workload that repeats exactly")
	}
}

func TestBoolValues(t *testing.T) {
	got := boolValues([]string{"--workload", "x", "--trace", "1", "--seed", "1"}, "trace")
	want := []string{"--workload", "x", "--trace=1", "--seed", "1"}
	if len(got) != len(want) {
		t.Fatalf("got %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	if got := boolValues([]string{"-trace"}, "trace"); len(got) != 1 || got[0] != "-trace" {
		t.Fatalf("bare -trace rewritten to %q", got)
	}
}

func TestProfPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"tracklog/internal/sim.(*Env).step":             "sim",
		"tracklog/internal/trail.(*Driver).StagedBytes": "trail",
		"tracklog/internal/crashexplore/stacks.ByName":  "other",
		"runtime.mallocgc":                              "runtime",
		"runtime/internal/syscall.Syscall6":             "runtime",
		"internal/runtime/maps.(*Iter).Next":            "runtime",
		"main.trailBurst.func2":                         "other",
	} {
		if got := profPackage(fn); got != want {
			t.Errorf("profPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
