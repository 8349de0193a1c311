package raid

import "tracklog/internal/telemetry"

// RegisterMetrics registers the array's workload counters, fault/repair
// telemetry (under the "raid.*" names Stats.Counters reports), and
// degradation gauges on reg, labeled array=name. Member devices are
// registered by the caller — the array only sees the blockdev interface. A
// nil registry registers nothing.
func (a *Array) RegisterMetrics(reg *telemetry.Registry, name string) {
	if reg == nil {
		return
	}
	l := telemetry.Label{Key: "array", Value: name}
	reg.CounterFuncs(func() telemetry.Counts { return a.stats.Counters() }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_reads_total",
		"Logical reads served by the array.",
		func() int64 { return a.stats.Reads }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_writes_total",
		"Logical writes served by the array.",
		func() int64 { return a.stats.Writes }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_small_writes_total",
		"Writes that took the read-modify-write parity path.",
		func() int64 { return a.stats.SmallWrites }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_full_stripes_total",
		"Writes that covered a full stripe.",
		func() int64 { return a.stats.FullStripes }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_device_reads_total",
		"Member-device read commands issued.",
		func() int64 { return a.stats.DeviceReads }, l)
	reg.CounterFunc(telemetry.Prefix+"raid_device_writes_total",
		"Member-device write commands issued.",
		func() int64 { return a.stats.DeviceWrites }, l)
	reg.GaugeFunc(telemetry.Prefix+"raid_degraded",
		"1 when a member device has failed, else 0.",
		func() float64 {
			if a.failed >= 0 {
				return 1
			}
			return 0
		}, l)
	reg.GaugeFunc(telemetry.Prefix+"raid_bad_sectors",
		"Member sectors currently known-bad (read back from parity until rewritten).",
		func() float64 { return float64(a.BadSectors()) }, l)
}
