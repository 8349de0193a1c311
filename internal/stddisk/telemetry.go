package stddisk

import "tracklog/internal/telemetry"

// Counters names both Stats fields as "stddisk.*" counters.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"stddisk.retries":  s.Retries,
		"stddisk.failures": s.Failures,
	}
}

// RegisterMetrics registers the device's Stats counters on reg, labeled
// disk=name, along with its scheduler queue and drive. A nil registry
// registers nothing.
func (d *Device) RegisterMetrics(reg *telemetry.Registry, name string) {
	reg.CounterFuncs(func() telemetry.Counts { return d.stats.Counters() },
		telemetry.Label{Key: "disk", Value: name})
	d.queue.RegisterMetrics(reg, name)
}
