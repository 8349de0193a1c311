package trail

import (
	"slices"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/trace"
)

// record tracks one write record on the log disk until all of its blocks
// have been committed to the data disks, at which point its track space can
// be reclaimed and the log head advanced (FIFO reclamation, §2).
type record struct {
	seq       uint64
	headerLBA int64
	log       *logDisk
	trackIdx  int // index into log.usable
	blocks    int
	committed int
	done      bool
}

// recordRef ties a staged buffer to the log records holding (copies of) it:
// when the buffer reaches the data disk, each referenced record gets
// `sectors` blocks closer to reclamation.
type recordRef struct {
	rec     *record
	sectors int
}

// bufKey identifies a staged write by data disk and extent. Writes to the
// same extent supersede each other (the paper's buffer page semantics: only
// the newest version of a buffer needs to reach the data disk). Extents that
// merely overlap are staged separately; clients with page-granular I/O (the
// file system, database, and all the paper's workloads) never produce
// conflicting partial overlaps.
type bufKey struct {
	dev   int
	lba   int64
	count int
}

// bufEntry is one staged write pinned in the driver's buffer memory. data is
// replaced by stage and never written through: a write-back flight keeps
// reading the slice it was handed while newer versions arrive, and frees it
// once it lands (writebackLoop).
type bufEntry struct {
	data  []byte
	lba   int64
	count int
	// stamp is the driver-wide stage count at which data was acknowledged: it
	// names the version, and where extents overlap the higher one is newer.
	stamp int64
	// refs lists the log records whose reclamation is waiting on this
	// buffer reaching the data disk; it starts out in ref0, which holds the
	// one reference of a write that supersedes nothing.
	refs []recordRef
	ref0 [1]recordRef
	// inQueue is true while a write-back for this key is queued (only one
	// queued write-back per buffer: duplicate requests are skipped, §4.2).
	inQueue bool
	// spanIDs lists the client write spans whose data this buffer holds,
	// awaiting a write-back flight to claim them as flow sources (empty while
	// span recording is disabled).
	spanIDs []int64
}

// oldestOutstanding returns the log disk's oldest not-yet-committed record,
// or nil.
func (ld *logDisk) oldestOutstanding() *record {
	for _, r := range ld.outstanding.Live() {
		if !r.done {
			return r
		}
	}
	return nil
}

// stage pins pw's data in the buffer memory and queues a write-back. If the
// same location is already staged, the new data supersedes it — the old
// version never needs its own data-disk write (its log records are freed
// when the newer version commits).
func (d *Driver) stage(pw *pendingWrite, rec *record) {
	key := bufKey{dev: pw.devIdx, lba: pw.lba, count: pw.count}
	e := d.staging[key]
	if e == nil {
		e = d.free.entries.get()
		e.lba, e.count, e.refs = pw.lba, pw.count, e.ref0[:0]
		d.staging[key] = e
		d.stagedBytes += e.bytes()
	} else if len(e.refs) > 0 || e.inQueue {
		// A version of this buffer is already awaiting write-back; the
		// new data supersedes it and a single data-disk write will
		// commit every accumulated record reference.
		d.stats.SupersededWriteBacks++
	}
	e.data = pw.data
	d.stageStamp++
	e.stamp = d.stageStamp
	e.refs = append(e.refs, recordRef{rec: rec, sectors: pw.count})
	if id := pw.rq.ID(); id != 0 {
		e.spanIDs = append(e.spanIDs, id)
	}
	if !e.inQueue {
		e.inQueue = true
		d.wbQueues[pw.devIdx].Push(key)
	}
	d.tlStaged.Set(float64(d.StagedBytes()), int64(d.env.Now()))
}

// wbWindow is the number of write-backs kept in flight per data disk, so
// the disk scheduler has a batch to elevator-sort and reads something to
// pre-empt.
const wbWindow = 8

// wbFlight is one in-flight write-back.
type wbFlight struct {
	key   bufKey
	entry *bufEntry
	refs  []recordRef
	ver   int64
	req   sched.Request
	tries int

	// rq is the flight's span tree (nil while recording is disabled); cursor
	// is its attribution frontier.
	rq     *span.Req
	cursor int64
}

// writebackLoop drains staged buffers of one data disk to their final
// locations, keeping up to wbWindow writes in the disk queue at once.
// Reads pre-empt these writes in the data disk scheduler.
func (d *Driver) writebackLoop(p *sim.Proc, devIdx int) {
	q := d.wbQueues[devIdx]
	// Every flight of a window completes before the next window is taken, so
	// one set of keys and flights, each with its own refs, serves them all.
	var window [wbWindow]wbFlight
	keys := make([]bufKey, 0, wbWindow)
	for {
		// Collect a window: block for the first key, drain extras.
		keys = append(keys[:0], q.Pop(p))
		for len(keys) < wbWindow {
			k, ok := q.TryPop()
			if !ok {
				break
			}
			keys = append(keys, k)
		}
		flights := window[:0]
		for _, key := range keys {
			e := d.staging[key]
			if e == nil || !e.inQueue {
				continue
			}
			e.inQueue = false
			flights = flights[:len(flights)+1]
			f := &flights[len(flights)-1]
			// No copy: a superseding write replaces e.data, never writes through it.
			*f = wbFlight{key: key, entry: e, refs: append(f.refs[:0], e.refs...), ver: e.stamp,
				req: sched.Request{Write: true, LBA: key.lba, Count: e.count, Data: e.data}}
			e.refs = e.refs[:0]
			if d.rec != nil {
				f.cursor = int64(p.Now())
				f.rq = d.rec.Start(span.KWriteback, "trail", d.dataNames[devIdx],
					key.lba, e.count, f.cursor)
				// Flow edges tie the flight back to the client writes whose
				// data it commits.
				for _, id := range e.spanIDs {
					f.rq.Flow(id)
				}
				e.spanIDs = nil
			}
			d.dataQueues[devIdx].Submit(&f.req)
			d.tlFlights.Add(1, int64(p.Now()))
			// A write-back flight has left staging for the data disk's
			// scheduler: a crash-exploration flight boundary.
			d.env.EmitProbe(p, sim.ProbeWBStart, d.probeNames[devIdx], key.lba, e.count)
		}
		if len(flights) > 0 {
			d.tlStagingFlush.Add(int64(len(flights)), int64(p.Now()))
		}
		if d.tr != nil && len(flights) > 0 {
			d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KStagingFlush,
				Track: d.dataNames[devIdx], Count: len(flights), A: int64(len(d.staging))})
		}
		for i := range flights {
			f := &flights[i]
			f.req.Done.Wait(p)
			f.attributeWait()
			// Transient faults get a bounded number of re-issues; each is a
			// full round trip through the scheduler, repositioning the head.
			for f.req.Err != nil && blockdev.IsTransient(f.req.Err) && f.tries < maxWritebackTries {
				f.tries++
				d.stats.WritebackRetries++
				if d.tr != nil {
					d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KRetry,
						Track: d.dataNames[devIdx], LBA: f.key.lba, Count: f.req.Count, A: int64(f.tries)})
				}
				f.attributeRetry(int64(f.tries))
				f.req = sched.Request{Write: true, LBA: f.key.lba, Count: f.req.Count, Data: f.req.Data}
				d.dataQueues[devIdx].Submit(&f.req)
				f.req.Done.Wait(p)
				f.attributeWait()
			}
			if f.req.Err != nil {
				f.attributeRetry(int64(f.tries + 1))
				f.rq.Finish(int64(f.req.Result.End), true)
				// Abandon the write-back: put the record references back on
				// the staging entry uncommitted, so the log space stays
				// pinned and the data remains both readable (staging
				// overlays reads) and crash-recoverable (from the log).
				d.stats.AbandonedWritebacks++
				e := f.entry
				e.refs = slices.Insert(e.refs, 0, f.refs...)
				d.tlFlights.Add(-1, int64(p.Now()))
				continue
			}
			if f.rq != nil {
				res := f.req.Result
				f.rq.Command(&res, d.dataDisks[devIdx].Params().RotPeriod())
				f.rq.Finish(int64(res.End), false)
			}
			d.stats.WriteBacks++
			d.tlWriteBacks.Inc(int64(p.Now()))
			// The flight's data is on the data disk; its log records are
			// about to be credited: the closing flight boundary.
			d.env.EmitProbe(p, sim.ProbeWBEnd, d.probeNames[devIdx], f.key.lba, f.req.Count)
			for _, ref := range f.refs {
				d.commitRef(ref)
			}
			// Release the buffer if no newer version arrived mid-flight. The
			// flight's chunk is free if the entry goes, or if a newer version
			// replaced it: reads copy staged data without yielding, and this
			// was the key's one flight.
			e := f.entry
			superseded := e.stamp != f.ver
			released := d.staging[f.key] == e && !superseded && len(e.refs) == 0 && !e.inQueue
			if released {
				delete(d.staging, f.key)
				d.stagedBytes -= e.bytes()
				d.tlStaged.Set(float64(d.StagedBytes()), int64(p.Now()))
				d.free.entries.put(e)
			}
			if released || superseded {
				d.free.chunks = append(d.free.chunks, f.req.Data)
			}
			d.tlFlights.Add(-1, int64(p.Now()))
			// Write-back progress: wake foreground writes throttled on the
			// staging high-water mark so they can re-check the level.
			d.wbProgress.Broadcast()
		}
	}
}

// attributeWait attributes the flight's scheduler wait — from the frontier
// to the moment the data disk started serving it — as queue time, carrying
// the queue-state snapshot for blame.
func (f *wbFlight) attributeWait() {
	if f.rq == nil {
		return
	}
	res := f.req.Result
	f.rq.ChildAB(span.PQueue, f.cursor, int64(res.Start),
		int64(f.req.DepthAtSubmit), int64(f.req.WritesAhead))
	f.cursor = int64(res.Start)
}

// attributeRetry attributes one failed service attempt.
func (f *wbFlight) attributeRetry(attempt int64) {
	if f.rq == nil {
		return
	}
	res := f.req.Result
	f.rq.ChildAB(span.PRetry, int64(res.Start), int64(res.End), attempt, 0)
	f.cursor = int64(res.End)
}

// commitRef credits a record with committed blocks; when a record is fully
// committed its track space becomes reclaimable and the log head advances
// past any fully committed prefix.
func (d *Driver) commitRef(ref recordRef) {
	r := ref.rec
	r.committed += ref.sectors
	if r.committed < r.blocks || r.done {
		return
	}
	r.done = true
	ld := r.log
	ld.busyCount[r.trackIdx]--
	if ld.busyCount[r.trackIdx] == 0 {
		ld.spaceFreed.Broadcast()
	}
	// Advance the FIFO head past committed records: no reference to one
	// remains, so it is free.
	for ld.outstanding.Len() > 0 && ld.outstanding.Live()[0].done {
		d.free.records.put(ld.outstanding.Pop())
	}
	d.maybeAllIdle()
}

// StagedBytes returns the memory pinned by the staging buffer.
func (d *Driver) StagedBytes() int64 { return d.stagedBytes }

// bytes is the memory e pins while staged.
func (e *bufEntry) bytes() int64 { return int64(e.count) * geom.SectorSize }

// chunk returns an n-byte staging chunk: the last one freed, or a new one
// when none is free or the last is too small (it is dropped then), so the
// free chunks never pin more memory than staging did at its peak. Its bytes
// are stale: the caller overwrites all n.
func (d *Driver) chunk(n int) []byte {
	if k := len(d.free.chunks) - 1; k >= 0 {
		c := d.free.chunks[k]
		d.free.chunks[k] = nil
		d.free.chunks = d.free.chunks[:k]
		if cap(c) >= n {
			return c[:n]
		}
	}
	return make([]byte, n)
}

// freeList recycles objects of one type: get returns a zeroed *T, and put
// zeroes x before keeping it, so a free object pins no chunk, record or span.
type freeList[T any] struct{ free sim.FIFO[*T] }

func (l *freeList[T]) get() *T {
	if l.free.Len() == 0 {
		return new(T)
	}
	return l.free.Pop()
}

func (l *freeList[T]) put(x *T) {
	*x = *new(T)
	l.free.Push(x)
}
