package metrics

import (
	"strings"
	"testing"
	"time"
)

// Percentile edge cases: the experiment harness calls Quantile on summaries
// of every shape, including ones that never saw a sample.
func TestQuantileEmptySummary(t *testing.T) {
	s := NewSummary()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Errorf("empty summary stats: mean=%v min=%v max=%v", s.Mean(), s.Min(), s.Max())
	}
	if s.String() != "no samples" {
		t.Errorf("empty String = %q", s.String())
	}
}

func TestQuantileSingleSample(t *testing.T) {
	s := NewSummary()
	s.Add(3 * time.Millisecond)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < s.Min() || got > s.Max() {
			t.Errorf("Quantile(%v) = %v outside [min, max] = [%v, %v]", q, got, s.Min(), s.Max())
		}
	}
	if s.Quantile(0) != 3*time.Millisecond || s.Quantile(1) != 3*time.Millisecond {
		t.Errorf("q=0/q=1 should be the single sample, got %v / %v", s.Quantile(0), s.Quantile(1))
	}
}

// Sub-microsecond samples all land in bucket 0 and must not produce
// quantiles outside the observed range.
func TestQuantileSubMicrosecond(t *testing.T) {
	s := NewSummary()
	for _, d := range []time.Duration{10, 200, 999} { // nanoseconds
		s.Add(d)
	}
	if got := s.Quantile(0.5); got < s.Min() || got > s.Max() {
		t.Errorf("sub-µs Quantile(0.5) = %v outside [%v, %v]", got, s.Min(), s.Max())
	}
	if s.Min() != 10 || s.Max() != 999 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Negative samples are clamped to zero rather than corrupting the histogram.
func TestAddNegativeClamps(t *testing.T) {
	s := NewSummary()
	s.Add(-time.Second)
	if s.Min() != 0 || s.Max() != 0 || s.Sum() != 0 {
		t.Errorf("negative sample not clamped: min=%v max=%v sum=%v", s.Min(), s.Max(), s.Sum())
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("Quantile after clamp = %v, want 0", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 1000; i++ {
		s.Add(time.Duration(i) * 17 * time.Microsecond)
	}
	prev := time.Duration(-1)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile not monotone: q=%v -> %v < previous %v", q, got, prev)
		}
		prev = got
	}
}

// AsciiPlot must render identically for identical input: the experiment
// harness diffs plots across runs.
func TestAsciiPlotDeterministic(t *testing.T) {
	series := []Series{
		{Name: "a", Points: [][2]float64{{1, 2}, {2, 4}, {4, 8}}},
		{Name: "b", Points: [][2]float64{{1, 3}, {2, 2}, {4, 1}}},
	}
	first := AsciiPlot("t", "x", "y", series, 40, 10)
	for i := 0; i < 5; i++ {
		if got := AsciiPlot("t", "x", "y", series, 40, 10); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Shape sanity: title, both axis labels, a legend line per series.
	for _, frag := range []string{"t\n", "(x)", "y", "* = a", "o = b"} {
		if !strings.Contains(first, frag) {
			t.Errorf("plot missing %q:\n%s", frag, first)
		}
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	// No points and single-point series must not panic or divide by zero.
	_ = AsciiPlot("empty", "x", "y", nil, 40, 10)
	_ = AsciiPlot("one", "x", "y", []Series{{Name: "s", Points: [][2]float64{{5, 5}}}}, 40, 10)
}
