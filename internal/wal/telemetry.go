package wal

import "tracklog/internal/telemetry"

// Counters names every Stats field as a "wal.*" counter, the I/O time in
// whole microseconds.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"wal.appends":         s.Appends,
		"wal.appended_bytes":  s.AppendedBytes,
		"wal.flushes":         s.Flushes,
		"wal.flushed_sectors": s.FlushedSectors,
		"wal.io_us":           s.IOTime.Microseconds(),
	}
}

// RegisterMetrics registers the log's Stats counters and buffer gauges on
// reg. A nil registry registers nothing.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return l.stats.Counters() })
	reg.GaugeFunc(telemetry.Prefix+"wal_buffered_bytes",
		"Bytes appended but not yet durable.",
		func() float64 { return float64(l.BufferedBytes()) })
	reg.GaugeFunc(telemetry.Prefix+"wal_durable_lsn",
		"Byte offset durable on disk.",
		func() float64 { return float64(l.flushedTo) })
}
