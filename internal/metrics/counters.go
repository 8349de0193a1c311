package metrics

import (
	"fmt"
	"sort"
	"strings"

	"tracklog/internal/telemetry"
)

// Counters is a small named-counter set used to export fault, retry, and
// reconstruction telemetry from the storage layers in one uniform shape.
// Iteration and rendering order is sorted by name, so String output is
// deterministic and can be compared byte-for-byte across runs.
//
// The zero value and a nil *Counters are both usable: reads return zeros and
// renders are empty, and mutating a zero value allocates the map lazily.
// Mutating a nil *Counters is a no-op, so optional telemetry can be threaded
// through without nil checks at every increment site.
type Counters struct {
	vals map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Add increments the named counter by n (creating it at zero).
func (c *Counters) Add(name string, n int64) {
	if c == nil {
		return
	}
	if c.vals == nil {
		c.vals = make(map[string]int64)
	}
	c.vals[name] += n
}

// Set forces the named counter to v.
func (c *Counters) Set(name string, v int64) {
	if c == nil {
		return
	}
	if c.vals == nil {
		c.vals = make(map[string]int64)
	}
	c.vals[name] = v
}

// Get returns the named counter (zero if never touched).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	return c.vals[name]
}

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	names := make([]string, 0, len(c.vals))
	for n := range c.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the counters as a plain map, for machine-
// readable export (JSON encoding, test assertions). Mutating the returned
// map does not affect c.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if c == nil {
		return out
	}
	for n, v := range c.vals {
		out[n] = v
	}
	return out
}

// Merge folds other into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	if c.vals == nil && len(other.vals) > 0 {
		c.vals = make(map[string]int64)
	}
	for n, v := range other.vals {
		c.vals[n] += v
	}
}

// String renders "name=value" pairs sorted by name.
//
// Deprecated exposition path: the hand-rolled formatting this method used to
// carry now lives in the unified telemetry exposition (Registry.WriteKV).
// String remains as a shim — it registers the counters in a transient
// telemetry.Registry and renders through it, byte-for-byte compatible with
// the historical output — so callers needing new formats should register
// with a telemetry.Registry directly instead of extending this method.
func (c *Counters) String() string {
	reg := telemetry.NewRegistry()
	for _, n := range c.Names() {
		v := c.vals[n]
		reg.CounterFunc(n, "", func() int64 { return v })
	}
	var b strings.Builder
	if err := reg.WriteKV(&b); err != nil {
		// strings.Builder never errors; keep the signature honest anyway.
		return fmt.Sprintf("counters: %v", err)
	}
	return b.String()
}
