// Package timeline aggregates per-layer state transitions into fixed
// virtual-time buckets, answering "where did each component's time go,
// when" — the occupancy view that scalar counters (internal/telemetry) and
// per-request span trees (internal/span) cannot give: rotate-wait share on
// the log disk over the run, staging-buffer sawtooth, queue-depth ramps.
//
// The package follows the repo's observability discipline exactly:
//
//  1. A disabled aggregator is a nil pointer. Every method on *Aggregator
//     and on the instrument handles (*Lane, *Meter, *Mark) is nil-receiver
//     safe and allocation-free when disabled, so instrumented layers call
//     them unguarded on every hot path (the same contract nilguard enforces
//     for trace.Tracer and span.Recorder; timeline handles are in its
//     handleTypes set).
//  2. State is pure virtual time. Buckets are indexed by virtual
//     nanoseconds over a fixed bucket width, lane occupancy is exact int64
//     nanosecond accounting, and meters accumulate in deterministic call
//     order — so every export is byte-identical across same-seed runs and
//     safe for the two-run byte-compare CI jobs.
//  3. Exposition is byte-deterministic and round-trippable: sorted series
//     order, shortest-exact float formatting via telemetry.FormatValue,
//     and a Parse that accepts exactly what WriteCSV emits (see export.go).
//
// Three instrument shapes cover the repo's layers:
//
//   - Lane: an exclusive state machine (disk head: idle/seek/rotate-wait/
//     transfer/...). Enter(state, at) charges the time since the previous
//     transition to the previous state, split exactly across buckets.
//   - Meter: a piecewise-constant level (queue depth, staged bytes).
//     Set/Add integrate value x time; export is the time-weighted mean per
//     bucket.
//   - Mark: a per-bucket event counter (sheds, flushes, events dispatched).
package timeline

import (
	"fmt"
	"sort"
	"time"
)

// seriesKind is the exposition kind of one series.
type seriesKind uint8

const (
	kindOccupancy seriesKind = iota + 1 // int64 ns per bucket
	kindMean                            // value x ns weighted sum per bucket
	kindCount                           // int64 events per bucket
)

func (k seriesKind) String() string {
	switch k {
	case kindOccupancy:
		return "occupancy_ns"
	case kindMean:
		return "mean"
	case kindCount:
		return "count"
	default:
		return "unknown"
	}
}

// series is one registered (component, track, name) stream of buckets.
type series struct {
	component, track, name string
	kind                   seriesKind

	ints   []int64   // occupancy / count buckets
	floats []float64 // mean: per-bucket value x ns sums
}

// key is the registry identity of a series.
func (s *series) key() string { return s.component + "\x00" + s.track + "\x00" + s.name }

// growTo ensures bucket index i exists.
func (s *series) growTo(i int64) {
	if s.kind == kindMean {
		for int64(len(s.floats)) <= i {
			s.floats = append(s.floats, 0)
		}
		return
	}
	for int64(len(s.ints)) <= i {
		s.ints = append(s.ints, 0)
	}
}

// Aggregator buckets state transitions on a fixed virtual-time grid.
// Create with New; a nil *Aggregator is a valid disabled aggregator whose
// instrument constructors return nil (equally disabled) handles.
//
// Registering two series with the same (component, track, name) identity
// panics: it is a wiring bug, and duplicate series would break the
// Parse round-trip contract (mirroring telemetry.Registry).
type Aggregator struct {
	bucketNS int64
	endNS    int64
	series   []*series
	byKey    map[string]bool
	openable []closable // lanes and meters, for Finish
}

// closable is an instrument with an open interval Finish must close.
type closable interface{ close(at int64) }

// New returns an aggregator with the given bucket width. It panics on a
// non-positive width (a construction bug, not a runtime condition).
func New(bucket time.Duration) *Aggregator {
	if bucket <= 0 {
		panic(fmt.Sprintf("timeline: bucket width %v", bucket))
	}
	return &Aggregator{bucketNS: int64(bucket), byKey: make(map[string]bool)}
}

// BucketNS returns the bucket width in virtual nanoseconds (0 when
// disabled).
func (a *Aggregator) BucketNS() int64 {
	if a == nil {
		return 0
	}
	return a.bucketNS
}

// add registers s, panicking on a duplicate identity.
func (a *Aggregator) add(s *series) {
	k := s.key()
	if a.byKey[k] {
		panic(fmt.Sprintf("timeline: duplicate series %s/%s/%s", s.component, s.track, s.name))
	}
	a.byKey[k] = true
	a.series = append(a.series, s)
}

// extend advances the export horizon to at.
func (a *Aggregator) extend(at int64) {
	if at > a.endNS {
		a.endNS = at
	}
}

// chargeNS adds the interval [from, to) to s, split exactly across buckets.
func (a *Aggregator) chargeNS(s *series, from, to int64) {
	if to <= from {
		return
	}
	a.extend(to)
	for from < to {
		b := from / a.bucketNS
		edge := (b + 1) * a.bucketNS
		if edge > to {
			edge = to
		}
		s.growTo(b)
		s.ints[b] += edge - from
		from = edge
	}
}

// chargeWeighted adds v x ns over [from, to) to a mean series.
func (a *Aggregator) chargeWeighted(s *series, from, to int64, v float64) {
	if to <= from {
		return
	}
	a.extend(to)
	if v == 0 {
		return
	}
	for from < to {
		b := from / a.bucketNS
		edge := (b + 1) * a.bucketNS
		if edge > to {
			edge = to
		}
		s.growTo(b)
		s.floats[b] += float64(v * float64(edge-from)) // rounded: never fused
		from = edge
	}
}

// Lane is an exclusive state machine over one component: at any instant it
// is in exactly one of its states, and every transition charges the elapsed
// time to the state being left. A nil *Lane is a valid disabled handle.
type Lane struct {
	agg    *Aggregator
	states []*series
	cur    int
	since  int64
}

// Lane registers an exclusive-state lane under (component, track) with one
// occupancy series per state, named "state/<s>". The lane starts in
// states[0] at virtual time 0. On a nil aggregator it returns a nil
// (disabled) handle; an empty state list panics.
func (a *Aggregator) Lane(component, track string, states []string) *Lane {
	if a == nil {
		return nil
	}
	if len(states) == 0 {
		panic("timeline: Lane with no states")
	}
	l := &Lane{agg: a}
	for _, st := range states {
		s := &series{component: component, track: track, name: "state/" + st, kind: kindOccupancy}
		a.add(s)
		l.states = append(l.states, s)
	}
	a.openable = append(a.openable, l)
	return l
}

// Enter moves the lane into state (an index into the construction list) at
// virtual time at, charging the interval since the previous transition to
// the state being left. Out-of-range states panic (a wiring bug); a
// backwards clock is clamped (nothing is charged).
func (l *Lane) Enter(state int, at int64) {
	if l == nil {
		return
	}
	if state < 0 || state >= len(l.states) {
		panic(fmt.Sprintf("timeline: Enter(%d) on a %d-state lane", state, len(l.states)))
	}
	l.agg.chargeNS(l.states[l.cur], l.since, at)
	l.cur = state
	if at > l.since {
		l.since = at
	}
}

// close charges the open interval through at.
func (l *Lane) close(at int64) {
	l.agg.chargeNS(l.states[l.cur], l.since, at)
	if at > l.since {
		l.since = at
	}
}

// Meter is a piecewise-constant level integrated over time (queue depth,
// staged bytes, write-back flights). A nil *Meter is a valid disabled
// handle. The exported per-bucket value is the time-weighted mean over the
// bucket width (partial trailing buckets are averaged over the full width;
// the bias is deterministic and shared by every export).
type Meter struct {
	agg   *Aggregator
	s     *series
	level float64
	since int64
}

// Meter registers a level series under (component, track, name), starting
// at level 0 at virtual time 0. On a nil aggregator it returns a nil
// (disabled) handle.
func (a *Aggregator) Meter(component, track, name string) *Meter {
	if a == nil {
		return nil
	}
	s := &series{component: component, track: track, name: name, kind: kindMean}
	a.add(s)
	m := &Meter{agg: a, s: s}
	a.openable = append(a.openable, m)
	return m
}

// Set records the level changing to v at virtual time at, charging the
// previous level over the elapsed interval.
func (m *Meter) Set(v float64, at int64) {
	if m == nil {
		return
	}
	m.agg.chargeWeighted(m.s, m.since, at, m.level)
	m.level = v
	if at > m.since {
		m.since = at
	}
}

// Add adjusts the level by d at virtual time at.
func (m *Meter) Add(d float64, at int64) {
	if m == nil {
		return
	}
	m.Set(m.level+d, at)
}

// close charges the open interval through at.
func (m *Meter) close(at int64) {
	m.agg.chargeWeighted(m.s, m.since, at, m.level)
	if at > m.since {
		m.since = at
	}
}

// Mark is a per-bucket event counter (sheds, deadline expiries, staging
// flushes, kernel dispatches). A nil *Mark is a valid disabled handle.
type Mark struct {
	agg *Aggregator
	s   *series
}

// Mark registers an event-count series under (component, track, name). On
// a nil aggregator it returns a nil (disabled) handle.
func (a *Aggregator) Mark(component, track, name string) *Mark {
	if a == nil {
		return nil
	}
	s := &series{component: component, track: track, name: name, kind: kindCount}
	a.add(s)
	return &Mark{agg: a, s: s}
}

// Inc counts one event at virtual time at.
func (k *Mark) Inc(at int64) {
	if k == nil {
		return
	}
	k.Add(1, at)
}

// Add counts n events at virtual time at (n may carry a magnitude, e.g.
// nanoseconds waited, not just a cardinality).
func (k *Mark) Add(n int64, at int64) {
	if k == nil || n == 0 {
		return
	}
	k.agg.extend(at)
	b := at / k.agg.bucketNS
	if b < 0 {
		b = 0
	}
	k.s.growTo(b)
	k.s.ints[b] += n
}

// Finish closes every open lane and meter interval at virtual time at
// (normally the simulation's final clock) and fixes the export horizon.
// Call once, after the run, before exporting; calling Finish again with a
// later at extends the horizon.
func (a *Aggregator) Finish(at int64) {
	if a == nil {
		return
	}
	a.extend(at)
	for _, ins := range a.openable {
		ins.close(at)
	}
}

// sortedSeries returns the series in deterministic exposition order.
func (a *Aggregator) sortedSeries() []*series {
	out := make([]*series, len(a.series))
	copy(out, a.series)
	sort.Slice(out, func(i, j int) bool {
		if out[i].component != out[j].component {
			return out[i].component < out[j].component
		}
		if out[i].track != out[j].track {
			return out[i].track < out[j].track
		}
		return out[i].name < out[j].name
	})
	return out
}
