package wal

import "tracklog/internal/telemetry"

// RegisterMetrics registers the log's append/flush counters and buffer
// gauges on reg. A nil registry registers nothing.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc(telemetry.Prefix+"wal_appends_total",
		"Records appended to the log.",
		func() int64 { return l.stats.Appends })
	reg.CounterFunc(telemetry.Prefix+"wal_appended_bytes_total",
		"Bytes appended to the log.",
		func() int64 { return l.stats.AppendedBytes })
	reg.CounterFunc(telemetry.Prefix+"wal_flushes_total",
		"Synchronous buffer forces (group commits).",
		func() int64 { return l.stats.Flushes })
	reg.CounterFunc(telemetry.Prefix+"wal_flushed_sectors_total",
		"Sectors written for log data.",
		func() int64 { return l.stats.FlushedSectors })
	reg.GaugeFunc(telemetry.Prefix+"wal_io_ms",
		"Total virtual time spent blocked on log disk I/O, in milliseconds.",
		func() float64 { return float64(l.stats.IOTime) / 1e6 })
	reg.GaugeFunc(telemetry.Prefix+"wal_buffered_bytes",
		"Bytes appended but not yet durable.",
		func() float64 { return float64(l.BufferedBytes()) })
	reg.GaugeFunc(telemetry.Prefix+"wal_durable_lsn",
		"Byte offset durable on disk.",
		func() float64 { return float64(l.flushedTo) })
}
