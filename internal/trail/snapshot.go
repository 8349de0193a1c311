package trail

import (
	"cmp"
	"fmt"
	"slices"

	"tracklog/internal/snapshot"
)

const driverSnapKind = "trail.Driver"

// quiescent reports why the driver's state is not pure data: client writes
// waiting in the log queue, a writer mid-record, or a write-back flight
// between ProbeWBStart and ProbeWBEnd all live on process stacks that a data
// snapshot cannot carry.
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

// walk is the driver's snapshot format: rig shape, epoch and record
// sequence, the full stats block, each log disk's allocator/predictor/record
// chain, the staging buffer in (dev, lba, count) order with its record
// references by position, and the write-back queues.
func (d *Driver) walk(c *snapshot.Codec) {
	nLogs, nData := len(d.logs), len(d.wbQueues)
	c.Int(&nLogs)
	c.Int(&nData)
	c.U32(&d.epoch)
	c.U64(&d.seq)
	snapshot.I64(c, &d.stageStamp)
	snapshot.I64(c, &d.lastActivity)
	c.Bool(&d.closed)
	failed := d.failed != nil
	c.Bool(&failed)
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
		c.Bytes(&e.data)
		c.Int(&e.count)
		snapshot.I64(c, &e.stamp)
		c.Bool(&e.inQueue)
		snapshot.Slice(c, &e.refs, func(c *snapshot.Codec, ref *recordRef) {
			pos, ok := recPos[ref.rec]
			if !ok {
				c.Fail(fmt.Errorf("%w: staged reference to an unknown record", snapshot.ErrCorrupt))
			}
			c.Int(&pos[0])
			c.Int(&pos[1])
			c.Int(&ref.sectors)
		})
		snapshot.Slice(c, &e.spanIDs, snapshot.I64[int64])
		staged += e.bytes()
	})
	// stagedBytes is a running counter beside the entries, not part of the
	// stream; a counter out of step with them is a bug the fingerprint must
	// not hide.
	if staged != d.stagedBytes {
		c.Fail(fmt.Errorf("%w: stagedBytes counter is %d bytes off the staging map", snapshot.ErrCorrupt, d.stagedBytes-staged))
	}

	for _, q := range d.wbQueues {
		items := q.Items()
		snapshot.Slice(c, &items, walkKey)
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
		c.U64(&(*r).seq)
		snapshot.I64(c, &(*r).headerLBA)
		c.Int(&(*r).trackIdx)
		c.Int(&(*r).blocks)
		c.Int(&(*r).committed)
		c.Bool(&(*r).done)
	})
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

// Snapshot encodes the driver's data state (see walk), the fingerprint a
// world checkpoint carries; nothing decodes it. It panics if the driver is
// not quiescent: a mid-record driver is not pure data, and its fingerprint
// would silently leave out the work in flight.
func (d *Driver) Snapshot() []byte {
	if err := d.quiescent(); err != nil {
		panic(fmt.Sprintf("trail: Snapshot: %v", err))
	}
	return snapshot.Encode(driverSnapKind, 2, d.walk)
}
