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

// Levels snapshots the log's live values: bytes appended but not yet
// durable, and the byte offset durable on disk.
func (l *Log) Levels() telemetry.Levels {
	return telemetry.Levels{
		"wal.buffered_bytes": float64(l.BufferedBytes()),
		"wal.durable_lsn":    float64(l.flushedTo),
	}
}

// RegisterMetrics registers the log's Stats counters and Levels on reg. A
// nil registry registers nothing.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return l.stats.Counters() })
	reg.GaugeFuncs(l.Levels)
}
