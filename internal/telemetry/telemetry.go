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
//     bound by Env.SetMetrics closes. Func-backed series (CounterFuncs,
//     GaugeFunc) close over the components they read; Close
//     calls Release, which freezes each at its last value and drops the
//     function, so a caller that keeps the registry past Close keeps its
//     exports and not the drives, queues and staging behind them.
//
// The package also holds the module's one counter-set type, Counts: the
// sorted "name=value" snapshot every layer's Stats hands out for reports,
// and Registry.CounterFuncs registers as live series — the one path from a
// Stats field to the registry, since the single-series counterFunc is
// unexported; and its one latency distribution, Summary, behind every
// reported mean and percentile.
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
type metricType uint8

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// metric is one registered series.
type metric struct {
	name   string // sanitized
	help   string
	typ    metricType
	labels []Label // keys sanitized, sorted

	// Exactly one of the following backs the series, until Release turns a
	// read function into the final value it read.
	counter   *Counter
	hist      *Histogram
	counterFn func() int64
	gaugeFn   func() float64
	final     float64
}

// value reads the series' current value (counters and gauges only).
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.counterFn != nil:
		return float64(m.counterFn())
	case m.gaugeFn != nil:
		return m.gaugeFn()
	default:
		return m.final
	}
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

// add registers m, panicking on a duplicate (name, labels) identity.
func (r *Registry) add(m *metric) {
	key := seriesKey(m.name, m.labels)
	if r.byKey[key] {
		panic(fmt.Sprintf("telemetry: duplicate registration of series %s", key))
	}
	r.byKey[key] = true
	r.metrics = append(r.metrics, m)
}

// newMetric sanitizes and sorts the series identity and attaches the
// backing store (one of the handle types or a read function). Handle-typed
// fields are assigned only here — inside a new* constructor — which is the
// installed-handle store discipline nilguard enforces.
func newMetric(name, help string, typ metricType, labels []Label, backing any) *metric {
	ls := make([]Label, len(labels))
	for i, l := range labels {
		ls[i] = Label{Key: PromName(l.Key), Value: l.Value}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	m := &metric{name: PromName(name), help: help, typ: typ, labels: ls}
	switch b := backing.(type) {
	case *Counter:
		m.counter = b
	case *Histogram:
		m.hist = b
	case func() int64:
		m.counterFn = b
	case func() float64:
		m.gaugeFn = b
	}
	return m
}

// Counter registers and returns a monotonically increasing counter. On a
// nil registry it returns a nil (disabled) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(newMetric(name, help, typeCounter, labels, c))
	return c
}

// counterFunc registers a counter whose value is read from fn at export
// time. It is unexported so that CounterFuncs, which names each series after
// a Counts entry, is the one way a layer's Stats reach the registry.
func (r *Registry) counterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.add(newMetric(name, help, typeCounter, labels, fn))
}

// GaugeFunc registers a gauge whose value is read from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.add(newMetric(name, help, typeGauge, labels, fn))
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (an implicit +Inf bucket is always appended). On a
// nil registry it returns a nil (disabled) handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	r.add(newMetric(name, help, typeHistogram, labels, h))
	return h
}

// Release reads every function-backed series once, keeps what it read as the
// series' final value, and drops the function — and with it the reference to
// the component the function read. Exports before and after print the same
// bytes; handle-backed series are untouched and keep exporting their live
// values. sim.Env.Close calls it on the registry SetMetrics bound, so a
// registry references its world only until that world is closed. Releasing
// twice, or a nil registry, is a no-op.
func (r *Registry) Release() {
	if r == nil {
		return
	}
	for _, m := range r.metrics {
		if m.counterFn != nil || m.gaugeFn != nil {
			m.final = m.value()
			m.counterFn, m.gaugeFn = nil, nil
		}
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
		return labelSig(out[i].labels) < labelSig(out[j].labels)
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
