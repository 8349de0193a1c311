package telemetry

import (
	"strings"
	"testing"
)

// Every exported method must be a no-op (or zero read) on a nil receiver:
// the discipline that lets instrumented components run unguarded with
// telemetry disabled.
func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	if r.Len() != 0 {
		t.Error("nil Registry.Len != 0")
	}
	c := r.Counter("c", "h")
	if c != nil {
		t.Error("nil registry returned non-nil Counter")
	}
	c.Add(1)
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil Counter.Value != 0")
	}
	h := r.Histogram("h", "h", []float64{1, 2})
	if h != nil {
		t.Error("nil registry returned non-nil Histogram")
	}
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil Histogram reads nonzero")
	}
	if b, c := h.Buckets(); b != nil || c != nil {
		t.Error("nil Histogram.Buckets returned slices")
	}
	r.CounterFunc("cf", "h", func() int64 { return 1 })
	r.GaugeFunc("gf", "h", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Errorf("nil Registry.WriteProm: %v", err)
	}
	if sb.Len() != 0 {
		t.Errorf("nil registry exposition not empty: %q", sb.String())
	}
}

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", "help")
	c.Add(1)
	c.Add(4)
	c.Add(-2) // negative deltas ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{10, 1, 100}) // unsorted on purpose
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("Sum = %v, want 556.5", h.Sum())
	}
	bounds, cum := h.Buckets()
	wantBounds := []float64{1, 10, 100}
	wantCum := []int64{2, 3, 4} // <=1: {0.5, 1}; <=10: +{5}; <=100: +{50}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] || cum[i] != wantCum[i] {
			t.Errorf("bucket %d = (%v, %d), want (%v, %d)", i, bounds[i], cum[i], wantBounds[i], wantCum[i])
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h", Label{Key: "a", Value: "1"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	// Same sanitized name and label set, registered as a different kind:
	// still the same series identity.
	r.GaugeFunc("x", "other", func() float64 { return 0 }, Label{Key: "a", Value: "1"})
}

func TestDistinctLabelsAreDistinctSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h", Label{Key: "d", Value: "0"})
	r.Counter("x", "h", Label{Key: "d", Value: "1"}) // must not panic
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

// Label keys are sanitized and sorted, so registration order does not leak
// into series identity or exposition order.
func TestLabelKeysSortedAndSanitized(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h", Label{Key: "z", Value: "1"}, Label{Key: "a-b", Value: "2"})
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x{a_b="2",z="1"}`) {
		t.Errorf("labels not sorted/sanitized:\n%s", sb.String())
	}
}

func TestFuncMetricsReadLive(t *testing.T) {
	r := NewRegistry()
	n := int64(0)
	r.CounterFunc("live", "h", func() int64 { return n })
	n = 7
	vals := mustParse(t, r)
	if vals["live"] != 7 {
		t.Errorf("live = %v, want 7 (func metrics must read at export time)", vals["live"])
	}
}

// Release freezes every func-backed series at the value it reads and never
// calls the function again; the export prints the same bytes before and
// after, for every series kind. Handle-backed series stay live, and a second
// Release, like Release on a nil registry, changes nothing.
func TestReleaseKeepsExports(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", "h", Label{Key: "disk", Value: "log0"})
	h := r.Histogram("lat", "h", []float64{1, 10})
	c.Add(3)
	h.Observe(4)
	n, depth, calls := int64(7), 0.75, 0
	r.CounterFunc("events", "h", func() int64 { calls++; return n })
	r.GaugeFunc("queue", "h", func() float64 { calls++; return depth })
	r.CounterFuncs(func() Counts { calls++; return Counts{"writes": n, "reads": 2 * n} }, Label{Key: "disk", Value: "data0"})
	export := func() string {
		var p strings.Builder
		if err := r.WriteProm(&p); err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	prom := export()

	r.Release()
	n, depth, calls = 100, 9, 0
	for round := 1; round <= 2; round++ {
		if p := export(); p != prom {
			t.Errorf("release %d changed the export:\nbefore:\n%s\nafter:\n%s", round, prom, p)
		}
		if calls != 0 {
			t.Errorf("release %d: read functions called %d times after Release", round, calls)
		}
		r.Release()
	}
	var nilReg *Registry
	nilReg.Release()

	c.Add(1)
	h.Observe(20)
	vals := mustParse(t, r)
	for key, want := range map[string]float64{
		`ops{disk="log0"}`: 4, "lat_count": 2, "lat_sum": 24,
		"events": 7, "queue": 0.75, `tracklog_writes_total{disk="data0"}`: 7,
	} {
		if vals[key] != want {
			t.Errorf("%s = %v after Release, want %v", key, vals[key], want)
		}
	}
}

func mustParse(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("round-trip parse: %v\n%s", err, sb.String())
	}
	return vals
}
