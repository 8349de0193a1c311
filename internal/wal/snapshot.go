package wal

import (
	"fmt"

	"tracklog/internal/snapshot"
)

const logSnapKind = "wal.Log"

// walk is the log's snapshot format: the configuration identity (region
// bounds, commit discipline, buffer size), then the buffered records,
// durability cursors, and counters. The device holding the log snapshots
// separately.
func (l *Log) walk(c *snapshot.Codec) {
	id := l.cfg
	mode := int(id.Mode)
	snapshot.I64(c, &id.StartLBA)
	snapshot.I64(c, &id.Sectors)
	c.Int(&mode)
	c.Int(&id.BufferBytes)
	c.Bool(&id.MetadataWrites)
	if id.StartLBA != l.cfg.StartLBA || id.Sectors != l.cfg.Sectors || Mode(mode) != l.cfg.Mode ||
		id.BufferBytes != l.cfg.BufferBytes || id.MetadataWrites != l.cfg.MetadataWrites {
		c.Fail(fmt.Errorf("%w: snapshot of a differently configured log region", snapshot.ErrMismatch))
	}

	buf := l.bufs[l.cur][segHeader:]
	c.View(&buf)
	if c.Decoding() {
		l.bufs[l.cur] = append(make([]byte, segHeader, segHeader+len(buf)), buf...)
	}
	snapshot.I64(c, &l.nextLSN)
	snapshot.I64(c, &l.flushedTo)
	snapshot.I64(c, &l.headSect)

	snapshot.I64(c, &l.stats.Appends)
	snapshot.I64(c, &l.stats.AppendedBytes)
	snapshot.I64(c, &l.stats.Flushes)
	snapshot.I64(c, &l.stats.FlushedSectors)
	snapshot.I64(c, &l.stats.IOTime)
}

// Snapshot encodes the log's state (see walk). The log must be quiescent: no
// flush may be in progress.
func (l *Log) Snapshot() []byte {
	if l.flushing {
		panic("wal: snapshot with a flush in progress")
	}
	return snapshot.Encode(logSnapKind, 1, l.walk)
}

// Restore adopts a state produced by Snapshot on a log with the same
// configuration. The walk decodes into a copy of the log with a buffer of
// its own, so a restored log shares nothing with the snapshot's source. The
// log must be quiescent.
func (l *Log) Restore(data []byte) error {
	s := *l
	if err := snapshot.Decode(data, logSnapKind, 1, s.walk); err != nil {
		return err
	}
	if l.flushing {
		return fmt.Errorf("%w: wal flush in progress", snapshot.ErrNotQuiescent)
	}
	*l = s
	return nil
}
