// Package telemetry is the unified metrics registry for the whole
// reproduction: counters, gauges, and histograms with one shared,
// byte-deterministic exposition path (Prometheus text).
//
// Design constraints, matching the trace.Tracer / span.Recorder discipline:
//
//  1. A disabled registry is a nil pointer. Every method on *Registry and on
//     the metric handles (*Counter, *Histogram) is nil-receiver
//     safe, so instrumented components register and update metrics
//     unguarded; the disabled path costs one branch.
//  2. Exposition is byte-deterministic. Series render in sorted
//     (name, labels) order, numbers use shortest-exact float formatting,
//     and name sanitization plus help/label escaping happen in exactly one
//     place (prom.go), the module's only Prometheus writer and parser.
//  3. The registry holds only virtual-time state. Wall-clock cost
//     (events/sec, ns/event, allocs/event) is measured from outside the
//     module by bench/ and never enters a Registry, so every registry
//     export is a same-seed artefact that tests can pin byte for byte
//     (cmd/clustersim's metrics.prom digests).
//  4. A registry references the world it observes only until the sim.Env
//     bound by Env.SetMetrics closes: Close calls Release, which reads each
//     layer snapshot a last time and drops its function, so a caller that
//     keeps the registry past Close keeps its exports and not the drives,
//     queues and staging behind them.
//
// The package also holds the module's counter set, Counts, which every
// layer's Stats hands out, and its gauge counterpart, Levels: a func-backed
// series is only ever an entry of one, registered by CounterFuncs or
// GaugeFuncs, and each export reads a layer's snapshot once. It also holds
// the one latency distribution, Summary, behind every reported mean and
// percentile.
//
// The package imports only the standard library, so internal/sim and every
// storage layer can depend on it without cycles.
package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"sort"
)

// Prefix namespaces every metric exported by this module.
const Prefix = "tracklog_"

// Label is one metric dimension, rendered as name{key="value"}. Label
// values are escaped at exposition time; keys are sanitized like metric
// names.
type Label struct {
	Key, Value string
}

// metricType is the exposition TYPE of a series.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// metric is one registered series.
type metric struct {
	name   string // sanitized
	help   string
	typ    metricType
	labels []Label // keys sanitized, sorted
	sig    string  // labelSig(labels)

	// A handle backs the series, or else an entry of a layer snapshot: key
	// names it, and val holds what the snapshot's last read gave it.
	counter *Counter
	hist    *Histogram
	key     string
	val     float64
}

// Registry is a set of named metric series. Create one with NewRegistry. A
// nil *Registry is a valid disabled registry: registrations are no-ops that
// hand back nil (equally disabled) metric handles.
//
// Registering two series with the same identity — equal sanitized name and
// label set — panics: it is a wiring bug, and emitting duplicate series
// would break the ParseProm round-trip contract.
type Registry struct {
	metrics []*metric
	byKey   map[string]bool
	// reads holds one function per CounterFuncs or GaugeFuncs call: it
	// reads that call's snapshot once and sets every series it backs.
	reads []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]bool)}
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// add registers m over labels, which sortLabels has sanitized and sorted,
// panicking on a duplicate (name, labels) identity.
func (r *Registry) add(m *metric, labels []Label) {
	m.labels, m.sig = labels, labelSig(labels)
	key := m.name + m.sig
	if r.byKey[key] {
		panic(fmt.Sprintf("telemetry: duplicate registration of series %s", key))
	}
	r.byKey[key] = true
	r.metrics = append(r.metrics, m)
}

// sortLabels returns a copy of labels with its keys sanitized, sorted by
// key.
func sortLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	for i, l := range labels {
		ls[i] = Label{Key: PromName(l.Key), Value: l.Value}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter registers and returns a monotonically increasing counter. On a
// nil registry it returns a nil (disabled) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(&metric{name: PromName(name), help: help, typ: typeCounter, counter: c}, sortLabels(labels))
	return c
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (an implicit +Inf bucket is always appended). On a
// nil registry it returns a nil (disabled) handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	r.add(&metric{name: PromName(name), help: help, typ: typeHistogram, hist: h}, sortLabels(labels))
	return h
}

// Release reads every layer snapshot once, keeps what it read as its
// series' final values, and drops the snapshot functions — and with them
// the references to the components they read. Exports before and after
// print the same bytes; handle-backed series are untouched and keep
// exporting their live values. sim.Env.Close calls it on the registry
// SetMetrics bound, so a registry references its world only until that
// world is closed. Releasing twice, or a nil registry, is a no-op.
func (r *Registry) Release() {
	if r == nil {
		return
	}
	r.read()
	r.reads = nil
}

// read reads every layer snapshot once, setting each series it backs.
func (r *Registry) read() {
	for _, read := range r.reads {
		read()
	}
}

// sorted returns the registered series in deterministic exposition order:
// by sanitized name, then by rendered label signature.
func (r *Registry) sorted() []*metric {
	if r == nil {
		return nil
	}
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].sig < out[j].sig
	})
	return out
}

// WriteFile exports the registry to path in the Prometheus text exposition.
// A nil registry writes no file.
func (r *Registry) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Counter is a monotonically increasing series. A nil *Counter is a valid
// disabled handle: updates are no-ops, reads return zero.
type Counter struct {
	v int64
}

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates observations into fixed buckets. A nil *Histogram
// is a valid disabled handle. Buckets are cumulative at exposition time,
// Prometheus-style; internally counts are per-bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  int64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Buckets returns the upper bounds and cumulative counts (excluding +Inf,
// whose cumulative count is Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	if h == nil {
		return nil, nil
	}
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]int64, len(h.bounds))
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i]
		cumulative[i] = cum
	}
	return bounds, cumulative
}
