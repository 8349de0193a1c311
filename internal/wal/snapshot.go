package wal

import (
	"fmt"
	"time"

	"tracklog/internal/snapshot"
)

const logSnapKind = "wal.Log"

// Snapshot encodes the log's buffered records, durability cursors, and
// counters, preceded by the configuration identity (region bounds, commit
// discipline, buffer size). The device holding the log snapshots separately.
// The log must be quiescent: no flush may be in progress.
func (l *Log) Snapshot() []byte {
	if l.flushing {
		panic("wal: snapshot with a flush in progress")
	}
	w := snapshot.NewWriter(logSnapKind, 1)
	w.I64(l.cfg.StartLBA)
	w.I64(l.cfg.Sectors)
	w.Int(int(l.cfg.Mode))
	w.Int(l.cfg.BufferBytes)
	w.Bool(l.cfg.MetadataWrites)

	w.Bytes32(l.bufs[l.cur][segHeader:])
	w.I64(l.nextLSN)
	w.I64(l.flushedTo)
	w.I64(l.headSect)

	w.I64(l.stats.Appends)
	w.I64(l.stats.AppendedBytes)
	w.I64(l.stats.Flushes)
	w.I64(l.stats.FlushedSectors)
	w.I64(int64(l.stats.IOTime))
	return w.Bytes()
}

// Restore adopts a state produced by Snapshot on a log with the same
// configuration. The buffer is deep-copied (Bytes32 copies), so a restored
// log shares nothing with the snapshot's source. The log must be quiescent.
func (l *Log) Restore(data []byte) error {
	r, err := snapshot.NewReader(data, logSnapKind, 1)
	if err != nil {
		return err
	}
	startLBA := r.I64()
	sectors := r.I64()
	mode := Mode(r.Int())
	bufferBytes := r.Int()
	metadataWrites := r.Bool()

	buf := r.Bytes32()
	nextLSN := r.I64()
	flushedTo := r.I64()
	headSect := r.I64()

	var st Stats
	st.Appends = r.I64()
	st.AppendedBytes = r.I64()
	st.Flushes = r.I64()
	st.FlushedSectors = r.I64()
	st.IOTime = time.Duration(r.I64())
	if err := r.Close(); err != nil {
		return err
	}
	if startLBA != l.cfg.StartLBA || sectors != l.cfg.Sectors || mode != l.cfg.Mode ||
		bufferBytes != l.cfg.BufferBytes || metadataWrites != l.cfg.MetadataWrites {
		return fmt.Errorf("%w: snapshot of a differently configured log region", snapshot.ErrMismatch)
	}
	if l.flushing {
		return fmt.Errorf("%w: wal flush in progress", snapshot.ErrNotQuiescent)
	}
	l.bufs[l.cur] = append(l.bufs[l.cur][:segHeader], buf...)
	l.nextLSN = nextLSN
	l.flushedTo = flushedTo
	l.headSect = headSect
	l.stats = st
	return nil
}
