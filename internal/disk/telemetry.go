package disk

import "tracklog/internal/telemetry"

// Counters names every Stats field as a "disk.*" counter, durations in
// whole microseconds.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"disk.reads":           s.Reads,
		"disk.writes":          s.Writes,
		"disk.sectors_read":    s.SectorsRead,
		"disk.sectors_written": s.SectorsWritten,
		"disk.errors":          s.Errors,
		"disk.busy_us":         s.Busy.Microseconds(),
		"disk.seek_us":         s.SeekTime.Microseconds(),
		"disk.rotate_us":       s.RotateTime.Microseconds(),
		"disk.transfer_us":     s.TransferTime.Microseconds(),
	}
}

// Levels snapshots the fraction of elapsed virtual time the drive spent
// busy.
func (d *Disk) Levels() telemetry.Levels {
	var util float64
	if now := d.env.Now(); now > 0 {
		util = float64(d.stats.Busy) / float64(now)
	}
	return telemetry.Levels{"disk.utilization": util}
}

// RegisterMetrics registers the drive's Stats counters and Levels on reg,
// labeled disk=name. All series read deterministic virtual-time state, so
// any export of reg stays byte-comparable across same-seed runs. A nil
// registry registers nothing.
func (d *Disk) RegisterMetrics(reg *telemetry.Registry, name string) {
	l := telemetry.Label{Key: "disk", Value: name}
	reg.CounterFuncs(func() telemetry.Counts { return d.stats.Counters() }, l)
	reg.GaugeFuncs(d.Levels, l)
}
