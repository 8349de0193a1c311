package trail

import "tracklog/internal/telemetry"

// RegisterMetrics registers the driver's full telemetry on reg: every
// Stats counter (under the "trail.*" names the report lines print), live
// queue/staging gauges, and every member disk — log disks as log0..logN,
// data disks as data0..dataN — including their virtual-time utilization. A
// nil registry registers nothing.
func (d *Driver) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFuncs(func() telemetry.Counts { return d.stats.Counters() })
	reg.GaugeFunc(telemetry.Prefix+"trail_log_queue_depth",
		"Client writes currently queued for the log disks.",
		func() float64 { return float64(d.LogQueueLen()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_staged_bytes",
		"Memory currently pinned by the staging buffer.",
		func() float64 { return float64(d.StagedBytes()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_outstanding_records",
		"Logged records not yet written back to a data disk.",
		func() float64 { return float64(d.OutstandingRecords()) })
	reg.GaugeFunc(telemetry.Prefix+"trail_avg_track_utilization",
		"Mean per-track space utilization over filled-and-left tracks.",
		func() float64 { return d.stats.AvgTrackUtilization() })
	for _, ld := range d.logs {
		ld.disk.RegisterMetrics(reg, ld.name)
	}
	for i, q := range d.dataQueues {
		q.RegisterMetrics(reg, d.dataNames[i])
	}
}
