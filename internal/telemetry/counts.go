package telemetry

import (
	"sort"
	"strconv"
	"strings"
)

// Counts is the module's one named-counter set: what every layer's Stats
// hands out as a snapshot (disk.Stats.Counters, trail.Stats.Counters,
// sim.KernelStats.Counters and the rest), named "<layer>.<field>" with
// durations in whole microseconds under a "_us" suffix; what reports print
// on their "counters:" lines; and the shape benchfmt.Entry.Counters stores.
// It is a plain map — read, set and range it as one; a nil Counts reads as
// empty. Every producer builds a fresh map per call, so a caller may keep or
// edit what it was given.
type Counts map[string]int64

// names returns the counter names in sorted order.
func (c Counts) names() []string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Merge adds every counter of other into c, which must be non-nil unless
// other is empty.
func (c Counts) Merge(other Counts) {
	for n, v := range other {
		c[n] += v
	}
}

// String renders "name=value" pairs separated by spaces and sorted by name,
// or "(none)" for an empty set, so reports built from it are byte-stable
// across runs.
func (c Counts) String() string {
	if len(c) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for i, n := range c.names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(c[n], 10))
	}
	return b.String()
}

// Levels is Counts' gauge counterpart: a layer's live values that no Stats
// field holds (queue depths, buffered bytes, virtual time), named
// "<layer>.<value>", fresh per call; each layer's Levels method documents
// its entries.
type Levels map[string]float64

// CounterFuncs registers every counter snap produces as a series under
// CounterName, the one bridge from a component's Stats().Counters() onto
// the registry. Each export and Release read snap once and set every series
// from that snapshot; entries that only appear in later snapshots are not
// exported.
func (r *Registry) CounterFuncs(snap func() Counts, labels ...Label) {
	addSnapshot(r, snap, typeCounter, CounterName, labels)
}

// GaugeFuncs is CounterFuncs for a component's Levels, exported as gauges
// under GaugeName.
func (r *Registry) GaugeFuncs(snap func() Levels, labels ...Label) {
	addSnapshot(r, snap, typeGauge, GaugeName, labels)
}

// addSnapshot registers one series of type typ per entry of snap's first
// snapshot, named by name and helped `Value of <typ> "<entry>".`, and one
// read of snap that sets them all.
func addSnapshot[M ~map[string]V, V int64 | float64](r *Registry, snap func() M, typ metricType, name func(string) string, labels []Label) {
	if r == nil {
		return
	}
	ls := sortLabels(labels)
	var series []*metric
	for k := range snap() {
		help := "Value of " + string(typ) + " " + strconv.Quote(k) + "."
		m := &metric{name: name(k), help: help, typ: typ, key: k}
		r.add(m, ls)
		series = append(series, m)
	}
	r.reads = append(r.reads, func() {
		vals := snap()
		for _, m := range series {
			m.val = float64(vals[m.key])
		}
	})
}
