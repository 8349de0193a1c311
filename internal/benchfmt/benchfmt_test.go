package benchfmt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func files(baseRate, curRate, baseP99, curP99 float64) (*File, *File) {
	mk := func(rate, p99 float64) *File {
		return &File{
			Seed: 1,
			Experiments: []Entry{{
				Name:   "x",
				Count:  100,
				MeanUS: 1000,
				P50US:  900,
				P99US:  p99,
				Rates:  map[string]float64{"events_per_virtual_sec": rate},
			}},
		}
	}
	base, cur := mk(baseRate, baseP99), mk(curRate, curP99)
	return base, cur
}

func findDelta(t *testing.T, deltas []Delta, metric string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for metric %q in %+v", metric, deltas)
	return Delta{}
}

// Latency is lower-is-better: only an INCREASE beyond tolerance regresses.
func TestLatencyDirection(t *testing.T) {
	tol := Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: 0.10}

	base, cur := files(1000, 1000, 4000, 4800) // p99 +20%
	deltas, _ := Compare(base, cur, tol)
	d := findDelta(t, deltas, "p99")
	if !d.Regressed || d.Pct <= 0 || d.HigherIsBetter {
		t.Errorf("p99 +20%%: %+v", d)
	}

	base, cur = files(1000, 1000, 4000, 3200) // p99 -20%: an improvement
	deltas, _ = Compare(base, cur, tol)
	if d := findDelta(t, deltas, "p99"); d.Regressed {
		t.Errorf("p99 improvement flagged as regression: %+v", d)
	}
}

// Rates are higher-is-better: only a DROP beyond tolerance regresses, and
// Pct stays signed positive-is-worse.
func TestRateDirectionInverted(t *testing.T) {
	tol := Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: 0.10}

	base, cur := files(1000, 800, 4000, 4000) // rate -20%
	deltas, _ := Compare(base, cur, tol)
	d := findDelta(t, deltas, "events_per_virtual_sec")
	if !d.Regressed || !d.HigherIsBetter {
		t.Errorf("rate -20%% not flagged: %+v", d)
	}
	if d.Pct != 20 {
		t.Errorf("rate drop Pct = %v, want +20 (positive means worse)", d.Pct)
	}

	base, cur = files(1000, 1200, 4000, 4000) // rate +20%: an improvement
	deltas, _ = Compare(base, cur, tol)
	d = findDelta(t, deltas, "events_per_virtual_sec")
	if d.Regressed {
		t.Errorf("rate improvement flagged as regression: %+v", d)
	}
	if d.Pct != -20 {
		t.Errorf("rate rise Pct = %v, want -20", d.Pct)
	}
}

func TestRateWithinToleranceAndDisabled(t *testing.T) {
	base, cur := files(1000, 950, 4000, 4000) // rate -5%, inside 10%
	deltas, _ := Compare(base, cur, Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: 0.10})
	if d := findDelta(t, deltas, "events_per_virtual_sec"); d.Regressed {
		t.Errorf("-5%% rate drop inside tolerance flagged: %+v", d)
	}

	base, cur = files(1000, 100, 4000, 4000) // rate -90%, gate disabled
	deltas, _ = Compare(base, cur, Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: -1})
	if d := findDelta(t, deltas, "events_per_virtual_sec"); d.Regressed {
		t.Errorf("negative Rate tolerance must disable gating: %+v", d)
	}
}

// A rate present in the baseline but dropped from the current entry
// compares as zero — silently losing a gated metric fails the gate.
func TestDroppedRateFailsGate(t *testing.T) {
	base, cur := files(1000, 1000, 4000, 4000)
	cur.Experiments[0].Rates = nil
	deltas, _ := Compare(base, cur, Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: 0.10})
	d := findDelta(t, deltas, "events_per_virtual_sec")
	if !d.Regressed || d.Cur != 0 {
		t.Errorf("dropped rate not gated: %+v", d)
	}
}

// A change from a zero baseline has no finite relative size: it is +Inf
// when worse and -Inf when better, so a regression from zero still ranks
// and an unchanged zero stays 0.
func TestZeroBaselineUnbounded(t *testing.T) {
	tol := Tolerance{Mean: 0.10, P50: 0.10, P99: 0.10, Rate: 0.10}
	for _, tc := range []struct {
		name              string
		baseP99, curP99   float64
		baseRate, curRate float64
		metric            string
		pct               float64
		regressed         bool
	}{
		{"latency up from zero", 0, 3, 1000, 1000, "p99", math.Inf(1), true},
		{"latency stays zero", 0, 0, 1000, 1000, "p99", 0, false},
		{"rate up from zero", 4000, 4000, 0, 5, "events_per_virtual_sec", math.Inf(-1), false},
		{"rate stays zero", 4000, 4000, 0, 0, "events_per_virtual_sec", 0, false},
	} {
		base, cur := files(tc.baseRate, tc.curRate, tc.baseP99, tc.curP99)
		deltas, _ := Compare(base, cur, tol)
		if d := findDelta(t, deltas, tc.metric); d.Pct != tc.pct || d.Regressed != tc.regressed {
			t.Errorf("%s: %+v, want Pct %v regressed %v", tc.name, d, tc.pct, tc.regressed)
		}
	}
}

func TestMissingExperimentReported(t *testing.T) {
	base, _ := files(1000, 1000, 4000, 4000)
	cur := &File{Seed: 1}
	_, missing := Compare(base, cur, Tolerance{})
	if len(missing) != 1 || missing[0] != "x" {
		t.Errorf("missing = %v, want [x]", missing)
	}
}

// Rates survive the JSON round trip byte-deterministically.
func TestFileRoundTripWithRates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	f, _ := files(1234.5, 0, 4000, 0)
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiments[0].Rates["events_per_virtual_sec"] != 1234.5 {
		t.Errorf("rate lost in round trip: %+v", got.Experiments[0])
	}
	if err := got.WriteFile(path + "2"); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path + "2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("round-tripped file is not byte-identical")
	}
}
