package telemetry

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEmptySummary(t *testing.T) {
	s := NewSummary()
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty summary not zero")
	}
	if s.String() != "no samples" {
		t.Errorf("String = %q", s.String())
	}
}

func TestBasicStats(t *testing.T) {
	s := NewSummary()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		s.Add(d)
	}
	if s.Count() != 3 {
		t.Errorf("count = %d", s.Count())
	}
	if s.Mean() != 2*time.Millisecond {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Min() != time.Millisecond || s.Max() != 3*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 6*time.Millisecond {
		t.Errorf("sum = %v", s.Sum())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 1000; i++ {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := float64(s.Quantile(q))
		want := q * 1000 * float64(time.Microsecond)
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("Q(%v) = %v, want ~%v", q, time.Duration(got), time.Duration(want))
		}
	}
}

func TestQuantileBounds(t *testing.T) {
	s := NewSummary()
	s.Add(5 * time.Millisecond)
	s.Add(7 * time.Millisecond)
	f := func(raw uint16) bool {
		q := float64(raw) / 65535.0
		v := s.Quantile(q)
		return v >= s.Min() && v <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegativeClamped(t *testing.T) {
	s := NewSummary()
	s.Add(-time.Second)
	if s.Min() != 0 || s.Max() != 0 {
		t.Error("negative sample not clamped to zero")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewSummary(), NewSummary()
	a.Add(time.Millisecond)
	b.Add(3 * time.Millisecond)
	b.Add(5 * time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 || a.Min() != time.Millisecond || a.Max() != 5*time.Millisecond {
		t.Errorf("merged: %v", a)
	}
	if a.Mean() != 3*time.Millisecond {
		t.Errorf("merged mean = %v", a.Mean())
	}
	// Merging an empty summary changes nothing.
	before := a.Count()
	a.Merge(NewSummary())
	if a.Count() != before {
		t.Error("empty merge changed count")
	}
}

func TestSubMicrosecondSamples(t *testing.T) {
	s := NewSummary()
	s.Add(100 * time.Nanosecond)
	s.Add(200 * time.Nanosecond)
	if s.Quantile(0.5) > time.Microsecond {
		t.Errorf("sub-microsecond quantile = %v", s.Quantile(0.5))
	}
}

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

// Below exactSamples the quantiles are exact nearest-rank order statistics,
// not histogram bucket bounds: bench output for short runs must be exact.
func TestQuantileExactSmallSample(t *testing.T) {
	s := NewSummary()
	for i := 100; i >= 1; i-- { // reverse order: exactness must not depend on arrival order
		s.Add(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},   // rank ceil(0.50*100) = 50
		{0.90, 90 * time.Millisecond},   // rank 90
		{0.99, 99 * time.Millisecond},   // rank 99
		{0.999, 100 * time.Millisecond}, // rank ceil(99.9) = 100
		{0.01, 1 * time.Millisecond},    // rank 1
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want exact %v", c.q, got, c.want)
		}
	}
}

func TestQuantileExactAtLimit(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= exactSamples; i++ {
		s.Add(time.Duration(i) * time.Microsecond)
	}
	// Still exact at exactly the limit.
	want := time.Duration(exactSamples/2) * time.Microsecond
	if got := s.Quantile(0.5); got != want {
		t.Fatalf("at limit: Quantile(0.5) = %v, want %v", got, want)
	}
	// One more sample spills to histogram-only: still within bounds and ~5%.
	s.Add(time.Duration(exactSamples+1) * time.Microsecond)
	got := s.Quantile(0.5)
	if got < s.Min() || got > s.Max() {
		t.Fatalf("post-spill Quantile(0.5) = %v outside [%v, %v]", got, s.Min(), s.Max())
	}
	true50 := float64((exactSamples + 1) / 2)
	if ratio := float64(got.Microseconds()) / true50; ratio < 0.95 || ratio > 1.10 {
		t.Fatalf("post-spill Quantile(0.5) = %v, true %vµs (ratio %.3f)", got, true50, ratio)
	}
}

func TestMergePreservesExactWhenSmall(t *testing.T) {
	a, b := NewSummary(), NewSummary()
	for i := 1; i <= 10; i++ {
		a.Add(time.Duration(i) * time.Millisecond)
		b.Add(time.Duration(i+10) * time.Millisecond)
	}
	a.Merge(b)
	if got, want := a.Quantile(0.5), 10*time.Millisecond; got != want {
		t.Fatalf("merged Quantile(0.5) = %v, want exact %v", got, want)
	}
	if got, want := a.Quantile(1), 20*time.Millisecond; got != want {
		t.Fatalf("merged Quantile(1) = %v, want %v", got, want)
	}
}

func TestMergeSpillsWhenCombinedTooLarge(t *testing.T) {
	a, b := NewSummary(), NewSummary()
	for i := 0; i < exactSamples/2+1; i++ {
		a.Add(time.Millisecond)
		b.Add(2 * time.Millisecond)
	}
	a.Merge(b)
	// Combined count exceeds the limit: must fall back to histogram without
	// leaving a stale partial sample slice behind.
	if got := a.Quantile(0.5); got < a.Min() || got > a.Max() {
		t.Fatalf("spilled merge Quantile(0.5) = %v outside [%v, %v]", got, a.Min(), a.Max())
	}
	if a.Count() != int64(exactSamples+2) {
		t.Fatalf("merged count = %d", a.Count())
	}
}
