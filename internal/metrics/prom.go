package metrics

import (
	"fmt"

	"tracklog/internal/telemetry"
)

// Prometheus exposition for counter sets, routed through the telemetry
// registry so the whole module shares one text-format implementation
// (name sanitization, escaping, ordering — see internal/telemetry/prom.go).

// RegisterCounters registers every counter produced by snap as a live
// counter series on reg, under the conventional exported names. snap is
// re-invoked at export time, so series read current values — the
// one-registration bridge from a component's Stats().Counters() snapshot
// style onto the unified registry. The name set is fixed at registration:
// counters that appear in later snapshots are not exported.
func RegisterCounters(reg *telemetry.Registry, snap func() *Counters, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	for _, n := range snap().Names() {
		n := n
		reg.CounterFunc(telemetry.CounterName(n),
			fmt.Sprintf("Value of counter %q.", n),
			func() int64 { return snap().Get(n) }, labels...)
	}
}
