package trail

import (
	"cmp"
	"fmt"
	"slices"

	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

const driverSnapKind = "trail.Driver"

// quiescent reports why the driver cannot be captured or adopted as pure
// data: client writes waiting in the log queue, a writer mid-record, or a
// write-back flight between ProbeWBStart and ProbeWBEnd all live on process
// stacks that a data snapshot cannot carry. Worlds in those states are
// restored by deterministic replay instead (internal/crashexplore).
func (d *Driver) quiescent() error {
	if d.logQ.Len() > 0 {
		return fmt.Errorf("%w: %d writes in the log queue", snapshot.ErrNotQuiescent, d.logQ.Len())
	}
	for _, ld := range d.logs {
		if ld.writerBusy {
			return fmt.Errorf("%w: log writer %d mid-record", snapshot.ErrNotQuiescent, ld.idx)
		}
	}
	for key, e := range d.staging {
		if len(e.refs) == 0 && !e.inQueue {
			return fmt.Errorf("%w: write-back of dev %d lba %d in flight",
				snapshot.ErrNotQuiescent, key.dev, key.lba)
		}
	}
	return nil
}

// Quiescent reports whether the driver's state is pure data (no log-queue
// entries, no writer mid-record, no write-back flight in the air) and thus
// snapshottable; the error explains what is in flight otherwise.
func (d *Driver) Quiescent() error { return d.quiescent() }

// walk is the driver's snapshot format: rig shape, epoch and record
// sequence, the full stats block, each log disk's allocator/predictor/record
// chain, the staging buffer in (dev, lba, count) order with its record
// references by position, and the write-back queues.
func (d *Driver) walk(c *snapshot.Codec) {
	nLogs, nData := len(d.logs), len(d.wbQueues)
	c.Int(&nLogs)
	c.Int(&nData)
	if nLogs != len(d.logs) || nData != len(d.wbQueues) {
		c.Fail(fmt.Errorf("%w: snapshot of a %d-log/%d-data rig, restoring into %d/%d",
			snapshot.ErrMismatch, nLogs, nData, len(d.logs), len(d.wbQueues)))
		return
	}
	c.U32(&d.epoch)
	c.U64(&d.seq)
	snapshot.I64(c, &d.stageStamp)
	snapshot.I64(c, &d.lastActivity)
	c.Bool(&d.closed)
	failed := d.failed != nil
	c.Bool(&failed)
	if c.Decoding() && (d.closed || failed) {
		c.Fail(fmt.Errorf("%w: snapshot of a shut-down or failed driver", snapshot.ErrNotQuiescent))
	}
	d.stats.walk(c)

	// Staging references encode as (log index, chain index).
	recPos := make(map[*record][2]int)
	for li, ld := range d.logs {
		ld.walk(c)
		for ri, rec := range ld.outstanding.Live() {
			recPos[rec] = [2]int{li, ri}
		}
	}
	keys := make([]bufKey, 0, len(d.staging))
	for k := range d.staging {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b bufKey) int {
		return cmp.Or(cmp.Compare(a.dev, b.dev), cmp.Compare(a.lba, b.lba), cmp.Compare(a.count, b.count))
	})
	var staged int64
	snapshot.Slice(c, &keys, func(c *snapshot.Codec, k *bufKey) {
		walkKey(c, k)
		e := d.staging[*k]
		if c.Decoding() {
			if k.dev < 0 || k.dev >= nData || e != nil {
				c.Fail(fmt.Errorf("%w: staged entry for data disk %d lba %d", snapshot.ErrCorrupt, k.dev, k.lba))
			}
			e = &bufEntry{lba: k.lba}
			d.staging[*k] = e
		}
		c.Bytes(&e.data)
		c.Int(&e.count)
		snapshot.I64(c, &e.stamp)
		c.Bool(&e.inQueue)
		snapshot.Slice(c, &e.refs, func(c *snapshot.Codec, ref *recordRef) {
			pos, ok := recPos[ref.rec]
			if !ok && !c.Decoding() {
				c.Fail(fmt.Errorf("%w: staged reference to an unknown record", snapshot.ErrCorrupt))
			}
			c.Int(&pos[0])
			c.Int(&pos[1])
			c.Int(&ref.sectors)
			if !c.Decoding() || c.Err() != nil {
				return
			}
			if pos[0] < 0 || pos[0] >= nLogs || pos[1] < 0 || pos[1] >= d.logs[pos[0]].outstanding.Len() {
				c.Fail(fmt.Errorf("%w: staged reference to record %d/%d", snapshot.ErrCorrupt, pos[0], pos[1]))
				return
			}
			ref.rec = d.logs[pos[0]].outstanding.Live()[pos[1]]
		})
		snapshot.Slice(c, &e.spanIDs, snapshot.I64[int64])
		staged += e.bytes()
	})
	// stagedBytes is derived from the entries and rebuilt on decode; a
	// snapshot taken with the counter out of step would restore into a
	// driver that throttles differently from the captured one.
	if c.Decoding() {
		d.stagedBytes = staged
	} else if staged != d.stagedBytes {
		c.Fail(fmt.Errorf("%w: stagedBytes counter is %d bytes off the staging map", snapshot.ErrCorrupt, d.stagedBytes-staged))
	}

	for _, q := range d.wbQueues {
		items := q.Items()
		snapshot.Slice(c, &items, walkKey)
		if c.Decoding() {
			for _, k := range items {
				q.Push(k)
			}
		}
	}
}

// walk is one log disk's section of the driver format.
func (ld *logDisk) walk(c *snapshot.Codec) {
	c.Int(&ld.posIdx)
	c.Int(&ld.usedOnTail)
	snapshot.Slice(c, &ld.trackUsed, (*snapshot.Codec).Bool)
	snapshot.Slice(c, &ld.busyCount, (*snapshot.Codec).Int)
	c.Bool(&ld.pred.valid)
	snapshot.I64(c, &ld.pred.t0)
	c.F64(&ld.pred.angle0)
	c.Int(&ld.refCHS.Cyl)
	c.Int(&ld.refCHS.Head)
	c.Int(&ld.refCHS.Sector)
	snapshot.I64(c, &ld.lastCmdEnd)
	snapshot.I64(c, &ld.lastRecordLBA)
	c.Bool(&ld.writerBusy)
	c.Bool(&ld.dead)
	snapshot.I64(c, &ld.lastRepoStart)
	snapshot.I64(c, &ld.lastRepoEnd)
	recs := ld.outstanding.Live()
	snapshot.Slice(c, &recs, func(c *snapshot.Codec, r **record) {
		if c.Decoding() {
			*r = new(record)
		}
		c.U64(&(*r).seq)
		snapshot.I64(c, &(*r).headerLBA)
		c.Int(&(*r).trackIdx)
		c.Int(&(*r).blocks)
		c.Int(&(*r).committed)
		c.Bool(&(*r).done)
	})
	if c.Decoding() {
		ld.outstanding.Reset(recs)
	}
}

func walkKey(c *snapshot.Codec, k *bufKey) {
	c.Int(&k.dev)
	snapshot.I64(c, &k.lba)
	c.Int(&k.count)
}

// walk carries every Stats field in declaration order.
func (s *Stats) walk(c *snapshot.Codec) {
	snapshot.I64(c, &s.Writes)
	snapshot.I64(c, &s.Records)
	snapshot.I64(c, &s.LoggedSectors)
	snapshot.I64(c, &s.Repositions)
	snapshot.I64(c, &s.RepositionTime)
	c.F64(&s.TrackUtilSum)
	snapshot.I64(c, &s.TrackUtilTracks)
	snapshot.I64(c, &s.LogFullStalls)
	snapshot.I64(c, &s.WriteBacks)
	snapshot.I64(c, &s.SupersededWriteBacks)
	snapshot.I64(c, &s.ReadsFromStaging)
	snapshot.I64(c, &s.IdleRefreshes)
	snapshot.I64(c, &s.LogWriteRetries)
	snapshot.I64(c, &s.LogMediaErrors)
	snapshot.I64(c, &s.LogRefRetries)
	snapshot.I64(c, &s.LogDiskFailures)
	snapshot.I64(c, &s.ReadRetries)
	snapshot.I64(c, &s.WritebackRetries)
	snapshot.I64(c, &s.AbandonedWritebacks)
	snapshot.I64(c, &s.FailedWrites)
	snapshot.I64(c, &s.ShedWrites)
	snapshot.I64(c, &s.DeadlineExceeded)
	snapshot.I64(c, &s.ThrottleStalls)
	snapshot.I64(c, &s.ThrottleTime)
	c.Int(&s.MaxLogQueue)
}

// Snapshot encodes the driver's data state (see walk). It panics if the
// driver is not quiescent (check with Quiescent first when unsure) —
// capturing a mid-record world as data would silently drop the in-flight
// work; replay-based checkpoints handle those worlds.
func (d *Driver) Snapshot() []byte {
	if err := d.quiescent(); err != nil {
		panic(fmt.Sprintf("trail: Snapshot: %v", err))
	}
	return snapshot.Encode(driverSnapKind, 2, d.walk)
}

// Restore adopts a state produced by Snapshot into a driver built over the
// same shape of rig (log/data disk counts). Both the snapshot and the target
// must be quiescent. Restored staging entries whose write-backs were queued
// resume through the write-back processes; byte-identical resumption of a
// whole world additionally requires the kernel to be rebuilt by replay (see
// internal/crashexplore).
func (d *Driver) Restore(data []byte) error {
	// The walk decodes into a driver of d's shape that owns nothing of d's.
	s := &Driver{staging: make(map[bufKey]*bufEntry)}
	for range d.logs {
		s.logs = append(s.logs, &logDisk{pred: new(Predictor)})
	}
	for range d.wbQueues {
		s.wbQueues = append(s.wbQueues, sim.NewQueue[bufKey](d.env))
	}
	if err := snapshot.Decode(data, driverSnapKind, 2, s.walk); err != nil {
		return err
	}
	for i, sl := range s.logs {
		if sl.writerBusy {
			return fmt.Errorf("%w: snapshot has log writer %d mid-record", snapshot.ErrNotQuiescent, i)
		}
		if len(sl.busyCount) != len(d.logs[i].busyCount) {
			return fmt.Errorf("%w: log disk %d has %d usable tracks, snapshot has %d",
				snapshot.ErrMismatch, i, len(d.logs[i].busyCount), len(sl.busyCount))
		}
		if sl.posIdx < 0 || sl.posIdx >= len(sl.busyCount) {
			return fmt.Errorf("%w: log disk %d tail index %d", snapshot.ErrCorrupt, i, sl.posIdx)
		}
	}
	if err := d.quiescent(); err != nil {
		return err
	}

	// The walk admitted only open, healthy snapshots; adopt that state too,
	// so restoring revives a driver that was shut down or failed since the
	// capture instead of silently keeping it dead.
	d.closed, d.failed = false, nil
	d.epoch, d.seq, d.stageStamp, d.lastActivity = s.epoch, s.seq, s.stageStamp, s.lastActivity
	d.stats = s.stats
	for i, ld := range d.logs {
		sl := s.logs[i]
		ld.posIdx, ld.usedOnTail, ld.trackUsed, ld.busyCount = sl.posIdx, sl.usedOnTail, sl.trackUsed, sl.busyCount
		ld.pred.valid, ld.pred.t0, ld.pred.angle0 = sl.pred.valid, sl.pred.t0, sl.pred.angle0
		ld.refCHS, ld.lastCmdEnd, ld.lastRecordLBA = sl.refCHS, sl.lastCmdEnd, sl.lastRecordLBA
		ld.dead, ld.lastRepoStart, ld.lastRepoEnd = sl.dead, sl.lastRepoStart, sl.lastRepoEnd
		ld.outstanding = sl.outstanding
		for _, rec := range ld.outstanding.Live() {
			rec.log = ld
		}
	}
	d.staging, d.stagedBytes = s.staging, s.stagedBytes
	for i, q := range d.wbQueues {
		q.Drain(0)
		for _, k := range s.wbQueues[i].Items() {
			q.Push(k)
		}
	}
	return nil
}
