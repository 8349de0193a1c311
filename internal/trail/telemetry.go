package trail

import "tracklog/internal/telemetry"

// Levels snapshots the driver's live values: client writes queued for the
// log disks, memory the staging buffer pins, logged records not yet written
// back to a data disk, and the mean space utilization of filled-and-left
// tracks.
func (d *Driver) Levels() telemetry.Levels {
	return telemetry.Levels{
		"trail.log_queue_depth":       float64(d.LogQueueLen()),
		"trail.staged_bytes":          float64(d.StagedBytes()),
		"trail.outstanding_records":   float64(d.OutstandingRecords()),
		"trail.avg_track_utilization": d.stats.AvgTrackUtilization(),
	}
}

// RegisterMetrics registers the driver's full telemetry on reg: its Stats
// counters (under the "trail.*" names the report lines print), its Levels,
// and every member disk — log disks as log0..logN, data disks as
// data0..dataN. A nil registry registers nothing.
func (d *Driver) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFuncs(func() telemetry.Counts { return d.stats.Counters() })
	reg.GaugeFuncs(d.Levels)
	for _, ld := range d.logs {
		ld.disk.RegisterMetrics(reg, ld.name)
	}
	for i, q := range d.dataQueues {
		q.RegisterMetrics(reg, d.dataNames[i])
	}
}
