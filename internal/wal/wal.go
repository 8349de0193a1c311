// Package wal implements the database write-ahead log of the paper's §5.2
// experiments: an append-only log file on a dedicated disk, opened
// O_SYNC-style so every forced write is synchronous, with the paper's
// group-commit emulation ("log records in the log buffer are forced to disk
// once the size of the log records exceeds the chosen log buffer size").
//
// On an EXT2-style baseline each synchronous log flush also pays the file
// metadata (inode/size) update that O_SYNC drags in, which is precisely the
// overhead Trail removes transparently for all blocks; internal/fslite
// models that second write (reproduce -only ext-fsmeta), so this log writes
// data only.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/timeline"
)

// ErrLogFull means the log region is exhausted.
var ErrLogFull = errors.New("wal: log region full")

// segMagic marks the start of a flushed segment on disk, which opens with
// segHeader bytes: magic(4) + length(4).
const segMagic, segHeader = 0x57414C53, 8 // "WALS"

// zeroSector pads a segment to its sector boundary.
var zeroSector [geom.SectorSize]byte

// Mode selects the commit discipline of the three systems in Table 2.
type Mode int

const (
	// SyncEveryCommit forces the buffer to disk at every transaction
	// commit (Berkeley DB with O_SYNC; the EXT2 and EXT2+Trail columns).
	SyncEveryCommit Mode = iota + 1
	// GroupCommit lets commits return once their records are buffered,
	// forcing the buffer to disk only when it exceeds the configured log
	// buffer size (the EXT2+GC column; durability is compromised, which is
	// the paper's criticism).
	GroupCommit
)

// Config describes a log.
type Config struct {
	// Dev is the device holding the log (the dedicated log disk).
	Dev blockdev.Device
	// Sectors bounds the log region, which starts at sector 0 of the
	// device: sector 0 is reserved, log data starts at 1.
	Sectors int64
	// Mode selects the commit discipline.
	Mode Mode
	// BufferBytes is the group-commit log buffer size (Table 3 sweeps 4 KB
	// to 1200 KB; default 50 KB as in §5.2). Also used in SyncEveryCommit
	// mode as the staging buffer, flushed at every commit.
	BufferBytes int
}

// Stats aggregates log activity for Table 2's "Disk I/O Time for Logging"
// row and Table 3's group-commit counts.
type Stats struct {
	// Appends counts records; AppendedBytes their volume.
	Appends       int64
	AppendedBytes int64
	// Flushes counts synchronous buffer forces (Table 3's "number of group
	// commits").
	Flushes int64
	// FlushedSectors counts sectors written for log data.
	FlushedSectors int64
	// IOTime is the total time processes spent blocked on log disk I/O
	// (Table 2's "Disk I/O Time for Logging").
	IOTime time.Duration
}

// Log is an append-only record log. Not safe for real concurrency;
// simulation processes interleave cooperatively.
type Log struct {
	cfg Config

	// bufs[cur] is the next segment as it will lie on disk: segHeader bytes
	// reserved, then the appended records. Flush frames and pads it in place
	// and hands it to the device, which does not keep it; appends meanwhile
	// go to the other buffer, so cur flips at every flush.
	bufs      [2][]byte
	cur       int
	nextLSN   int64 // byte offset of the end of the buffer
	flushedTo int64 // byte offset durable on disk
	headSect  int64 // next sector offset in the region to write

	flushing  bool
	flushDone *sim.Cond

	stats Stats

	// Timeline instruments (nil = disabled): buffered bytes as a level,
	// group-commit activity per bucket.
	tlBuffered                       *timeline.Meter
	tlAppends, tlFlushes, tlFlushedS *timeline.Mark
}

// New returns an empty log. env is used for internal synchronization.
func New(env *sim.Env, cfg Config) (*Log, error) {
	if cfg.Dev == nil {
		return nil, errors.New("wal: nil device")
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 50 * 1024
	}
	if cfg.Mode == 0 {
		cfg.Mode = SyncEveryCommit
	}
	if cfg.Sectors <= 0 {
		return nil, errors.New("wal: empty log region")
	}
	return &Log{cfg: cfg, flushDone: sim.NewCond(env),
		bufs: [2][]byte{make([]byte, segHeader), make([]byte, segHeader)}}, nil
}

// Stats returns a copy of the counters.
func (l *Log) Stats() Stats { return l.stats }

// SetTimeline attaches the log to a utilization-timeline aggregator under
// the given track: the unflushed buffer as a time-weighted byte level, plus
// per-bucket appends, group-commit flushes, and flushed sectors. A nil
// aggregator disables all of it. Call once per aggregator, before the run.
func (l *Log) SetTimeline(a *timeline.Aggregator, name string) {
	l.tlBuffered = a.Meter("wal", name, "buffered_bytes")
	l.tlAppends = a.Mark("wal", name, "appends")
	l.tlFlushes = a.Mark("wal", name, "flushes")
	l.tlFlushedS = a.Mark("wal", name, "flushed_sectors")
}

// DurableLSN returns the byte offset up to which the log is durable.
func (l *Log) DurableLSN() int64 { return l.flushedTo }

// NextLSN returns the byte offset at the end of the buffered log.
func (l *Log) NextLSN() int64 { return l.nextLSN }

// Mode returns the commit discipline.
func (l *Log) Mode() Mode { return l.cfg.Mode }

// Append buffers one record (length-prefixed) and returns its end LSN. In
// group-commit mode the buffer is forced to disk when it exceeds the
// configured size; the appending process pays that I/O.
func (l *Log) Append(p *sim.Proc, rec []byte) (int64, error) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	l.bufs[l.cur] = append(append(l.bufs[l.cur], hdr[:]...), rec...)
	l.nextLSN += int64(len(rec) + 4)
	l.stats.Appends++
	l.stats.AppendedBytes += int64(len(rec))
	l.tlAppends.Inc(int64(p.Now()))
	l.tlBuffered.Set(float64(l.BufferedBytes()), int64(p.Now()))
	if l.BufferedBytes() >= l.cfg.BufferBytes {
		if err := l.Flush(p); err != nil {
			return 0, err
		}
	}
	return l.nextLSN, nil
}

// Commit makes the transaction's records durable according to the mode: in
// SyncEveryCommit it forces the buffer now; in GroupCommit it returns
// immediately (the records ride a later forced flush — the durability
// compromise the paper points out).
func (l *Log) Commit(p *sim.Proc, lsn int64) error {
	switch l.cfg.Mode {
	case SyncEveryCommit:
		if l.flushedTo >= lsn {
			return nil
		}
		return l.Flush(p)
	case GroupCommit:
		return nil
	default:
		return fmt.Errorf("wal: unknown mode %d", l.cfg.Mode)
	}
}

// WaitDurable blocks until the log is durable through lsn (for callers that
// want real durability under group commit).
func (l *Log) WaitDurable(p *sim.Proc, lsn int64) {
	for l.flushedTo < lsn {
		l.flushDone.Wait(p)
	}
}

// Flush forces the buffered records to disk synchronously. Concurrent
// callers coalesce: a process arriving while a flush is in progress waits
// for it and re-checks.
func (l *Log) Flush(p *sim.Proc) error {
	target := l.nextLSN
	for l.flushing {
		l.flushDone.Wait(p)
		if l.flushedTo >= target {
			return nil
		}
	}
	if l.BufferedBytes() == 0 {
		return nil
	}
	l.flushing = true
	seg := l.bufs[l.cur]
	l.cur ^= 1
	l.bufs[l.cur] = l.bufs[l.cur][:segHeader]
	l.tlBuffered.Set(0, int64(p.Now()))
	flushLSN := l.nextLSN

	// Frame the flush as a segment where it lies: magic and length into the
	// reserved head, zeroes up to a sector boundary behind the records, so a
	// reader can walk flush boundaries after a crash.
	binary.LittleEndian.PutUint32(seg, segMagic)
	binary.LittleEndian.PutUint32(seg[4:], uint32(len(seg)-segHeader))
	sectors := int64((len(seg) + geom.SectorSize - 1) / geom.SectorSize)
	seg = append(seg, zeroSector[:int(sectors)*geom.SectorSize-len(seg)]...)
	err := func() error {
		// Sector 0 of the region is reserved; log data starts at sector 1.
		if 1+l.headSect+sectors > l.cfg.Sectors {
			return fmt.Errorf("%w: %d of %d sectors used", ErrLogFull, l.headSect, l.cfg.Sectors)
		}
		start := p.Now()
		if err := l.cfg.Dev.Write(p, 1+l.headSect, int(sectors), seg); err != nil {
			return fmt.Errorf("wal: flushing: %w", err)
		}
		l.stats.IOTime += p.Now().Sub(start)
		l.headSect += sectors
		l.stats.Flushes++
		l.stats.FlushedSectors += sectors
		l.tlFlushes.Inc(int64(p.Now()))
		l.tlFlushedS.Add(sectors, int64(p.Now()))
		return nil
	}()
	l.flushing, l.bufs[l.cur^1] = false, seg
	if err == nil {
		l.flushedTo = flushLSN
		// The flushed records are durable and commits through flushLSN are
		// about to be acknowledged: a crash-exploration interesting event.
		p.Env().EmitProbe(p, sim.ProbeCommit, "wal", flushLSN, int(sectors))
	}
	l.flushDone.Broadcast()
	return err
}

// BufferedBytes returns the size of the unflushed buffer.
func (l *Log) BufferedBytes() int { return len(l.bufs[l.cur]) - segHeader }

// ReadRecords scans the log region, the device's first sectors sectors, and
// returns every durable record in append order. Use it after a crash to
// drive redo recovery: the
// block-level (Trail) recovery first restores the device contents, then the
// database replays these records.
func ReadRecords(p *sim.Proc, dev blockdev.Device, sectors int64) ([][]byte, error) {
	var out [][]byte
	le := binary.LittleEndian
	for at := int64(1); at < sectors; { // sector 0 of the region is reserved
		hdr, err := dev.Read(p, at, 1)
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment header: %w", err)
		}
		if le.Uint32(hdr) != segMagic {
			break // end of log
		}
		length := int64(le.Uint32(hdr[4:]))
		segSectors := (segHeader + length + geom.SectorSize - 1) / geom.SectorSize
		if length <= 0 || at+segSectors > sectors {
			break // torn or corrupt tail segment
		}
		seg, err := dev.Read(p, at, int(segSectors))
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment: %w", err)
		}
		body := seg[segHeader : segHeader+length]
		for len(body) >= 4 {
			recLen := int(le.Uint32(body))
			if recLen <= 0 || recLen+4 > len(body) {
				break
			}
			rec := make([]byte, recLen)
			copy(rec, body[4:4+recLen])
			out = append(out, rec)
			body = body[4+recLen:]
		}
		at += segSectors
	}
	return out, nil
}
