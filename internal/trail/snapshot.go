package trail

import (
	"fmt"
	"sort"
	"time"

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

// sortedStagingKeys returns the staging keys in (dev, lba, count) order, the
// deterministic iteration order every snapshot walk uses.
func (d *Driver) sortedStagingKeys() []bufKey {
	keys := make([]bufKey, 0, len(d.staging))
	for k := range d.staging {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.dev != b.dev {
			return a.dev < b.dev
		}
		if a.lba != b.lba {
			return a.lba < b.lba
		}
		return a.count < b.count
	})
	return keys
}

// Snapshot encodes the driver's data state: epoch and record sequence, the
// full stats block, each log disk's allocator/predictor/record chain, the
// staging buffer with its record references, and the write-back queues. It
// panics if the driver is not quiescent (check with Quiescent first when
// unsure) — capturing a mid-record world as data would silently drop the
// in-flight work; replay-based checkpoints handle those worlds.
func (d *Driver) Snapshot() []byte {
	if err := d.quiescent(); err != nil {
		panic(fmt.Sprintf("trail: Snapshot: %v", err))
	}
	// Position of every outstanding record, so staging references encode as
	// (log index, chain index).
	recPos := make(map[*record][2]int)
	for li, ld := range d.logs {
		for ri, rec := range ld.outstanding {
			recPos[rec] = [2]int{li, ri}
		}
	}

	w := snapshot.NewWriter(driverSnapKind, 2)
	w.Int(len(d.logs))
	w.Int(len(d.dataDisks))
	w.U32(d.epoch)
	w.U64(d.seq)
	w.I64(d.stageStamp)
	w.I64(int64(d.lastActivity))
	w.Bool(d.closed)
	w.Bool(d.failed != nil)

	encodeTrailStats(w, &d.stats)

	for _, ld := range d.logs {
		w.Int(ld.posIdx)
		w.Int(ld.usedOnTail)
		w.U32(uint32(len(ld.trackUsed)))
		for _, u := range ld.trackUsed {
			w.Bool(u)
		}
		w.U32(uint32(len(ld.busyCount)))
		for _, n := range ld.busyCount {
			w.Int(n)
		}
		w.Bool(ld.pred.valid)
		w.I64(int64(ld.pred.t0))
		w.F64(ld.pred.angle0)
		w.Int(ld.refCHS.Cyl)
		w.Int(ld.refCHS.Head)
		w.Int(ld.refCHS.Sector)
		w.I64(int64(ld.lastCmdEnd))
		w.I64(ld.lastRecordLBA)
		w.Bool(ld.writerBusy)
		w.Bool(ld.dead)
		w.I64(ld.lastRepoStart)
		w.I64(ld.lastRepoEnd)
		w.U32(uint32(len(ld.outstanding)))
		for _, rec := range ld.outstanding {
			w.U64(rec.seq)
			w.I64(rec.headerLBA)
			w.Int(rec.trackIdx)
			w.Int(rec.blocks)
			w.Int(rec.committed)
			w.Bool(rec.done)
		}
	}

	keys := d.sortedStagingKeys()
	w.U32(uint32(len(keys)))
	// stagedBytes is derived from the entries encoded below and rebuilt by
	// Restore; a snapshot taken with the counter out of step would restore
	// into a driver that throttles differently from the captured one.
	staged := d.stagedBytes
	for _, k := range keys {
		e := d.staging[k]
		staged -= e.bytes()
		w.Int(k.dev)
		w.I64(k.lba)
		w.Int(k.count)
		w.Bytes32(e.data)
		w.Int(e.count)
		w.I64(e.stamp)
		w.Bool(e.inQueue)
		w.U32(uint32(len(e.refs)))
		for _, ref := range e.refs {
			pos, ok := recPos[ref.rec]
			if !ok {
				panic("trail: Snapshot: staged reference to an unknown record")
			}
			w.Int(pos[0])
			w.Int(pos[1])
			w.Int(ref.sectors)
		}
		w.U32(uint32(len(e.spanIDs)))
		for _, id := range e.spanIDs {
			w.I64(id)
		}
	}

	if staged != 0 {
		panic(fmt.Sprintf("trail: Snapshot: stagedBytes counter is %d bytes off the staging map", staged))
	}

	for _, q := range d.wbQueues {
		items := q.Items()
		w.U32(uint32(len(items)))
		for _, k := range items {
			w.Int(k.dev)
			w.I64(k.lba)
			w.Int(k.count)
		}
	}
	return w.Bytes()
}

// Quiescent reports whether the driver's state is pure data (no log-queue
// entries, no writer mid-record, no write-back flight in the air) and thus
// snapshottable; the error explains what is in flight otherwise.
func (d *Driver) Quiescent() error { return d.quiescent() }

// Restore adopts a state produced by Snapshot into a driver built over the
// same shape of rig (log/data disk counts). Both the snapshot and the target
// must be quiescent. Restored staging entries whose write-backs were queued
// resume through the write-back processes; byte-identical resumption of a
// whole world additionally requires the kernel to be rebuilt by replay (see
// internal/crashexplore).
func (d *Driver) Restore(data []byte) error {
	r, err := snapshot.NewReader(data, driverSnapKind, 2)
	if err != nil {
		return err
	}
	nLogs := r.Int()
	nData := r.Int()
	epoch := r.U32()
	seq := r.U64()
	stageStamp := r.I64()
	lastActivity := r.I64()
	closed := r.Bool()
	failed := r.Bool()

	var st Stats
	decodeTrailStats(r, &st)

	type ldState struct {
		posIdx, usedOnTail         int
		trackUsed                  []bool
		busyCount                  []int
		predValid                  bool
		predT0                     int64
		predAngle0                 float64
		refCyl, refHead, refSector int
		lastCmdEnd, lastRecordLBA  int64
		writerBusy, dead           bool
		lastRepoStart, lastRepoEnd int64
		recs                       []*record
	}
	if nLogs < 0 || nLogs > 1<<16 || nData < 0 || nData > 1<<16 {
		return fmt.Errorf("%w: implausible rig shape %d/%d", snapshot.ErrCorrupt, nLogs, nData)
	}
	lds := make([]*ldState, 0, nLogs)
	for i := 0; i < nLogs && r.Err() == nil; i++ {
		s := &ldState{}
		s.posIdx = r.Int()
		s.usedOnTail = r.Int()
		nt := r.Len()
		s.trackUsed = make([]bool, nt)
		for j := 0; j < nt; j++ {
			s.trackUsed[j] = r.Bool()
		}
		nb := r.Len()
		s.busyCount = make([]int, nb)
		for j := 0; j < nb; j++ {
			s.busyCount[j] = r.Int()
		}
		s.predValid = r.Bool()
		s.predT0 = r.I64()
		s.predAngle0 = r.F64()
		s.refCyl = r.Int()
		s.refHead = r.Int()
		s.refSector = r.Int()
		s.lastCmdEnd = r.I64()
		s.lastRecordLBA = r.I64()
		s.writerBusy = r.Bool()
		s.dead = r.Bool()
		s.lastRepoStart = r.I64()
		s.lastRepoEnd = r.I64()
		nr := r.Len()
		for j := 0; j < nr; j++ {
			rec := &record{
				seq:       r.U64(),
				headerLBA: r.I64(),
				trackIdx:  r.Int(),
				blocks:    r.Int(),
				committed: r.Int(),
			}
			rec.done = r.Bool()
			s.recs = append(s.recs, rec)
		}
		lds = append(lds, s)
	}

	type stagedState struct {
		key    bufKey
		entry  *bufEntry
		refPos [][3]int
	}
	ns := r.Len()
	var staged []*stagedState
	for i := 0; i < ns && r.Err() == nil; i++ {
		ss := &stagedState{entry: &bufEntry{}}
		ss.key.dev = r.Int()
		ss.key.lba = r.I64()
		ss.key.count = r.Int()
		ss.entry.data = r.Bytes32()
		ss.entry.count = r.Int()
		ss.entry.stamp = r.I64()
		ss.entry.inQueue = r.Bool()
		nr := r.Len()
		for j := 0; j < nr; j++ {
			ss.refPos = append(ss.refPos, [3]int{r.Int(), r.Int(), r.Int()})
		}
		nsp := r.Len()
		for j := 0; j < nsp; j++ {
			ss.entry.spanIDs = append(ss.entry.spanIDs, r.I64())
		}
		staged = append(staged, ss)
	}

	wbItems := make([][]bufKey, 0, nData)
	for i := 0; i < nData && r.Err() == nil; i++ {
		nq := r.Len()
		items := make([]bufKey, 0, nq)
		for j := 0; j < nq; j++ {
			items = append(items, bufKey{dev: r.Int(), lba: r.I64(), count: r.Int()})
		}
		wbItems = append(wbItems, items)
	}
	if err := r.Close(); err != nil {
		return err
	}

	if nLogs != len(d.logs) || nData != len(d.dataDisks) {
		return fmt.Errorf("%w: snapshot of a %d-log/%d-data rig, restoring into %d/%d",
			snapshot.ErrMismatch, nLogs, nData, len(d.logs), len(d.dataDisks))
	}
	if closed || failed {
		return fmt.Errorf("%w: snapshot of a shut-down or failed driver", snapshot.ErrNotQuiescent)
	}
	for i, s := range lds {
		if s.writerBusy {
			return fmt.Errorf("%w: snapshot has log writer %d mid-record", snapshot.ErrNotQuiescent, i)
		}
		if len(s.busyCount) != len(d.logs[i].busyCount) {
			return fmt.Errorf("%w: log disk %d has %d usable tracks, snapshot has %d",
				snapshot.ErrMismatch, i, len(d.logs[i].busyCount), len(s.busyCount))
		}
		if s.posIdx < 0 || s.posIdx >= len(s.busyCount) {
			return fmt.Errorf("%w: log disk %d tail index %d", snapshot.ErrCorrupt, i, s.posIdx)
		}
	}
	if err := d.quiescent(); err != nil {
		return err
	}
	// Validate the staging reference graph before touching anything.
	for _, ss := range staged {
		if ss.key.dev < 0 || ss.key.dev >= nData {
			return fmt.Errorf("%w: staged entry for data disk %d", snapshot.ErrCorrupt, ss.key.dev)
		}
		for _, pos := range ss.refPos {
			if pos[0] < 0 || pos[0] >= nLogs || pos[1] < 0 || pos[1] >= len(lds[pos[0]].recs) {
				return fmt.Errorf("%w: staged reference to record %d/%d", snapshot.ErrCorrupt, pos[0], pos[1])
			}
		}
	}

	// The gate above admitted only open, healthy snapshots; adopt that state
	// too, so restoring revives a driver that was shut down or failed since
	// the capture instead of silently keeping it dead.
	d.closed = false
	d.failed = nil
	d.epoch = epoch
	d.seq = seq
	d.stageStamp = stageStamp
	d.lastActivity = sim.Time(lastActivity)
	d.stats = st
	for i, s := range lds {
		ld := d.logs[i]
		ld.posIdx = s.posIdx
		ld.usedOnTail = s.usedOnTail
		ld.trackUsed = s.trackUsed
		ld.busyCount = s.busyCount
		ld.pred.valid = s.predValid
		ld.pred.t0 = sim.Time(s.predT0)
		ld.pred.angle0 = s.predAngle0
		ld.refCHS.Cyl = s.refCyl
		ld.refCHS.Head = s.refHead
		ld.refCHS.Sector = s.refSector
		ld.lastCmdEnd = sim.Time(s.lastCmdEnd)
		ld.lastRecordLBA = s.lastRecordLBA
		ld.dead = s.dead
		ld.lastRepoStart = s.lastRepoStart
		ld.lastRepoEnd = s.lastRepoEnd
		for _, rec := range s.recs {
			rec.log = ld
		}
		ld.outstanding = s.recs
	}
	d.staging = make(map[bufKey]*bufEntry, len(staged))
	d.stagedBytes = 0
	for _, ss := range staged {
		for _, pos := range ss.refPos {
			ss.entry.refs = append(ss.entry.refs, recordRef{
				rec:     d.logs[pos[0]].outstanding[pos[1]],
				sectors: pos[2],
			})
		}
		ss.entry.lba = ss.key.lba
		d.staging[ss.key] = ss.entry
		d.stagedBytes += ss.entry.bytes()
	}
	for i, items := range wbItems {
		q := d.wbQueues[i]
		q.Drain(0)
		for _, k := range items {
			q.Push(k)
		}
	}
	return nil
}

// encodeTrailStats writes every Stats field in declaration order.
func encodeTrailStats(w *snapshot.Writer, s *Stats) {
	w.I64(s.Writes)
	w.I64(s.Records)
	w.I64(s.LoggedSectors)
	w.I64(s.Repositions)
	w.I64(int64(s.RepositionTime))
	w.F64(s.TrackUtilSum)
	w.I64(s.TrackUtilTracks)
	w.I64(s.LogFullStalls)
	w.I64(s.WriteBacks)
	w.I64(s.SupersededWriteBacks)
	w.I64(s.ReadsFromStaging)
	w.I64(s.IdleRefreshes)
	w.I64(s.LogWriteRetries)
	w.I64(s.LogMediaErrors)
	w.I64(s.LogRefRetries)
	w.I64(s.LogDiskFailures)
	w.I64(s.ReadRetries)
	w.I64(s.WritebackRetries)
	w.I64(s.AbandonedWritebacks)
	w.I64(s.FailedWrites)
	w.I64(s.ShedWrites)
	w.I64(s.DeadlineExceeded)
	w.I64(s.ThrottleStalls)
	w.I64(int64(s.ThrottleTime))
	w.Int(s.MaxLogQueue)
}

// decodeTrailStats reads the fields encodeTrailStats wrote.
func decodeTrailStats(r *snapshot.Reader, s *Stats) {
	s.Writes = r.I64()
	s.Records = r.I64()
	s.LoggedSectors = r.I64()
	s.Repositions = r.I64()
	s.RepositionTime = time.Duration(r.I64())
	s.TrackUtilSum = r.F64()
	s.TrackUtilTracks = r.I64()
	s.LogFullStalls = r.I64()
	s.WriteBacks = r.I64()
	s.SupersededWriteBacks = r.I64()
	s.ReadsFromStaging = r.I64()
	s.IdleRefreshes = r.I64()
	s.LogWriteRetries = r.I64()
	s.LogMediaErrors = r.I64()
	s.LogRefRetries = r.I64()
	s.LogDiskFailures = r.I64()
	s.ReadRetries = r.I64()
	s.WritebackRetries = r.I64()
	s.AbandonedWritebacks = r.I64()
	s.FailedWrites = r.I64()
	s.ShedWrites = r.I64()
	s.DeadlineExceeded = r.I64()
	s.ThrottleStalls = r.I64()
	s.ThrottleTime = time.Duration(r.I64())
	s.MaxLogQueue = r.Int()
}
