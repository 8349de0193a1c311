package telemetry

import (
	"fmt"
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

// CounterFuncs registers every counter snap produces as a live counter
// series under its conventional exported name (CounterName). snap is
// re-invoked at export time, so the series read current values — the one
// bridge from a component's Stats().Counters() snapshot onto the registry.
// The name set is fixed at registration: counters that only appear in later
// snapshots are not exported.
func (r *Registry) CounterFuncs(snap func() Counts, labels ...Label) {
	if r == nil {
		return
	}
	for _, n := range snap().names() {
		r.counterFunc(CounterName(n), fmt.Sprintf("Value of counter %q.", n),
			func() int64 { return snap()[n] }, labels...)
	}
}
