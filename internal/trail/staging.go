package trail

import (
	"encoding/binary"
	"math/bits"
	"slices"

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
	trackIdx  int // the track's index in the allocation order
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

// bufEntry is one staged write pinned in the driver's buffer memory, of
// data disk dev's extent [lba, lba+count). Writes to the same extent
// supersede each other (the paper's buffer page semantics: only the newest
// version of a buffer needs to reach the data disk). Extents that merely
// overlap are staged separately; clients with page-granular I/O (the file
// system, database, and all the paper's workloads) never produce conflicting
// partial overlaps. data is the write's image (pack); a write-back flight
// expands it into a buffer of its own, so stage frees the image a newer
// version replaces.
type bufEntry struct {
	data  []byte
	dev   int
	lba   int64
	count int
	// stamp is the driver-wide stage count at which data was acknowledged: it
	// names the version, and where extents overlap the higher one is newer.
	stamp int64
	// refs lists the log records whose reclamation is waiting on this
	// buffer reaching the data disk; it starts out in ref0, which holds the
	// one reference of a write that supersedes nothing. An array a
	// superseding write grew stays with the entry when it is freed.
	refs []recordRef
	ref0 [1]recordRef
	// inQueue is true while a write-back for this extent is queued (only one
	// queued write-back per buffer: duplicate requests are skipped, §4.2).
	inQueue bool
	round   int32 // the log stall that last queued it again (retryPinning); 0 once a write queues it
	// chain is the next entry in the entry's stripeIndex bucket; next, while
	// inQueue, the next in its data disk's wbQueue.
	chain, next *bufEntry
	// spanIDs lists the client write spans whose data this buffer holds,
	// awaiting a write-back flight to claim them as flow sources (empty while
	// span recording is disabled). Its array, like refs', stays with the
	// entry when it is freed.
	spanIDs []int64
}

// oldestOutstanding returns the log disk's oldest not-yet-committed record,
// or nil: the head of outstanding, since commitRef pops committed records.
func (ld *logDisk) oldestOutstanding() *record {
	if live := ld.outstanding.Live(); len(live) > 0 {
		return live[0]
	}
	return nil
}

// stage pins pw's data in the buffer memory and queues a write-back. If the
// same location is already staged, the new data supersedes it — the old
// version never needs its own data-disk write (its log records are freed
// when the newer version commits).
func (d *Driver) stage(pw *pendingWrite, rec *record) {
	e := d.staged.find(pw.devIdx, pw.lba, pw.count)
	if e == nil {
		e = d.free.entries.get()
		e.dev, e.lba, e.count = pw.devIdx, pw.lba, pw.count
		if e.refs == nil {
			e.refs = e.ref0[:0]
		}
		d.staged.add(e)
		d.stagedBytes += e.bytes()
	} else if len(e.refs) > 0 || e.inQueue {
		// A version of this buffer is already awaiting write-back; the
		// new data supersedes it and a single data-disk write will
		// commit every accumulated record reference.
		d.stats.SupersededWriteBacks++
	}
	if e.data != nil {
		d.free.images.put(e.data)
	}
	e.data = pw.data
	d.stageStamp++
	e.stamp = d.stageStamp
	e.refs = append(e.refs, recordRef{rec: rec, sectors: pw.count})
	if id := pw.rq.ID(); id != 0 {
		e.spanIDs = append(e.spanIDs, id)
	}
	if !e.inQueue {
		e.inQueue, e.round = true, 0
		d.wbQueues[pw.devIdx].push(e)
		if len(e.refs) > 1 { // rare: it held references before this one, so it was abandoned
			d.abandoned = slices.DeleteFunc(d.abandoned, func(a *bufEntry) bool { return a == e })
			d.wakePinned(e)
		}
	}
	d.tlStaged.Set(float64(d.StagedBytes()), int64(d.env.Now()))
}

// stripeIndex files every staged entry under its stripe, (dev, lba /
// MaxBatch), in a chained hash whose chains run through the entries' chain
// links; its power-of-two bucket array doubles when the entries outnumber the
// buckets and never shrinks. No staged extent is longer than MaxBatch sectors
// (write splits at MaxBatchSectors), so the extents overlapping a range start
// in its own stripes or in the one before.
type stripeIndex struct {
	buckets []*bufEntry
	n       int // entries filed
}

// bucket returns the head of stripe s of data disk dev's bucket: a
// splitmix64 finish of the pair, so neighbouring stripes spread out.
func (x *stripeIndex) bucket(dev int, s int64) **bufEntry {
	z := uint64(s) + uint64(dev)<<48 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return &x.buckets[(z^z>>31)&uint64(len(x.buckets)-1)]
}

// find returns the entry staging dev's extent [lba, lba+count), or nil.
func (x *stripeIndex) find(dev int, lba int64, count int) *bufEntry {
	if x.n == 0 {
		return nil
	}
	e := *x.bucket(dev, lba/MaxBatch)
	for e != nil && (e.dev != dev || e.lba != lba || e.count != count) {
		e = e.chain
	}
	return e
}

func (x *stripeIndex) add(e *bufEntry) {
	if x.n++; x.n > len(x.buckets) {
		old := x.buckets
		x.buckets = make([]*bufEntry, max(2*len(old), 16))
		for _, o := range old {
			for o != nil {
				next := o.chain
				x.link(o)
				o = next
			}
		}
	}
	x.link(e)
}

func (x *stripeIndex) link(e *bufEntry) {
	b := x.bucket(e.dev, e.lba/MaxBatch)
	e.chain, *b = *b, e
}

func (x *stripeIndex) remove(e *bufEntry) {
	b := x.bucket(e.dev, e.lba/MaxBatch)
	for *b != e {
		b = &(*b).chain
	}
	*b, e.chain = e.chain, nil
	x.n--
}

// wbQueue is one data disk's write-back queue, its entries linked through
// next, oldest first: push wakes one waiting pop and pop waits while the
// queue is empty, the pattern of a kernel queue, which holds no array.
type wbQueue struct {
	head, tail *bufEntry
	cond       *sim.Cond
}

func (q *wbQueue) push(e *bufEntry) {
	if q.tail == nil {
		q.head = e
	} else {
		q.tail.next = e
	}
	q.tail = e
	q.cond.Signal()
}

// pop removes and returns the oldest entry, waiting for one while the queue
// is empty.
func (q *wbQueue) pop(p *sim.Proc) *bufEntry {
	for q.head == nil {
		q.cond.Wait(p)
	}
	return q.tryPop()
}

// tryPop removes and returns the oldest entry, nil when there is none.
func (q *wbQueue) tryPop() *bufEntry {
	e := q.head
	if e != nil {
		q.head, e.next = e.next, nil
		if q.head == nil {
			q.tail = nil
		}
	}
	return e
}

// wbWindow is the number of write-backs kept in flight per data disk, so
// the disk scheduler has a batch to elevator-sort and reads something to
// pre-empt.
const wbWindow = 8

// wbFlight is one write-back; buf, its slot's own, holds its data. entry is
// the staged entry it writes until the flight lands or is abandoned, nil after.
type wbFlight struct {
	entry *bufEntry
	refs  []recordRef
	ver   int64
	buf   []byte
	req   sched.Request

	// rq is the flight's span tree (nil while recording is disabled); cursor
	// is its attribution frontier.
	rq     *span.Req
	cursor int64
}

// writebackLoop drains staged buffers of one data disk to their final
// locations, keeping up to wbWindow writes in the disk queue at once.
// Reads pre-empt these writes in the data disk scheduler.
func (d *Driver) writebackLoop(p *sim.Proc, devIdx int) {
	q := &d.wbQueues[devIdx]
	// Every flight of a window lands before the next window is taken, so one
	// set of flights, with their refs and buffers, serves them all; an entry
	// leaves staging only when its own flight lands, so a queued one is
	// staged still.
	window := &d.windows[devIdx]
	for {
		// Collect a window: block for the first entry, drain extras.
		flights := window[:1]
		flights[0].entry = q.pop(p)
		for len(flights) < wbWindow {
			e := q.tryPop()
			if e == nil {
				break
			}
			flights = flights[:len(flights)+1]
			flights[len(flights)-1].entry = e
		}
		for i := range flights {
			f := &flights[i]
			e := f.entry
			e.inQueue = false
			buf := slices.Grow(f.buf[:0], e.count*geom.SectorSize)[:e.count*geom.SectorSize]
			unpack(buf, e.data, e.count, 0)
			*f = wbFlight{entry: e, refs: append(f.refs[:0], e.refs...), ver: e.stamp, buf: buf,
				req: sched.Request{Write: true, LBA: e.lba, Count: e.count, Data: buf}}
			e.refs = e.refs[:0]
			if d.rec != nil {
				f.cursor = int64(p.Now())
				f.rq = d.rec.Start(span.KWriteback, "trail", d.dataNames[devIdx],
					e.lba, e.count, f.cursor)
				// Flow edges tie the flight back to the client writes whose
				// data it commits.
				for _, id := range e.spanIDs {
					f.rq.Flow(id)
				}
				e.spanIDs = e.spanIDs[:0]
			}
			d.dataQueues[devIdx].Submit(&f.req)
			d.tlFlights.Add(1, int64(p.Now()))
			// A write-back flight has left staging for the data disk's
			// scheduler: a crash-exploration flight boundary.
			d.env.EmitProbe(p, sim.ProbeWBStart, d.probeNames[devIdx], e.lba, e.count)
		}
		d.tlStagingFlush.Add(int64(len(flights)), int64(p.Now()))
		if d.tr != nil {
			d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KStagingFlush,
				Track: d.dataNames[devIdx], Count: len(flights), A: int64(d.staged.n)})
		}
		for i := range flights {
			f := &flights[i]
			n, err := d.dataQueues[devIdx].Serve(p, &f.req, maxWritebackTries, f.rq, f.cursor)
			d.stats.WritebackRetries += int64(n)
			e := f.entry
			f.entry = nil
			if err != nil {
				// Abandon the write-back: put the record references back on
				// the staging entry uncommitted, so the log space stays
				// pinned and the data remains both readable (staging
				// overlays reads) and crash-recoverable (from the log).
				d.stats.AbandonedWritebacks++
				e.refs = slices.Insert(e.refs, 0, f.refs...)
				d.abandon(e, err)
				d.tlFlights.Add(-1, int64(p.Now()))
				continue
			}
			d.stats.WriteBacks++
			d.tlWriteBacks.Inc(int64(p.Now()))
			// The flight's data is on the data disk; its log records are
			// about to be credited: the closing flight boundary.
			d.env.EmitProbe(p, sim.ProbeWBEnd, d.probeNames[devIdx], f.req.LBA, f.req.Count)
			for _, ref := range f.refs {
				d.commitRef(ref)
			}
			// Release the entry and its image if no newer version arrived
			// mid-flight.
			if e.stamp == f.ver && len(e.refs) == 0 && !e.inQueue {
				d.staged.remove(e)
				d.stagedBytes -= e.bytes()
				d.tlStaged.Set(float64(d.StagedBytes()), int64(p.Now()))
				d.free.images.put(e.data)
				d.freeEntry(e)
			}
			d.tlFlights.Add(-1, int64(p.Now()))
			// Write-back progress: wake foreground writes throttled on the
			// staging high-water mark so they can re-check the level.
			d.wbProgress.Broadcast()
		}
	}
}

// abandon lists e, whose write-back failed with err, as abandoned unless a
// newer write queued it again meanwhile: an entry is abandoned when it is
// staged, neither queued nor in flight, and holds record references, which
// stay pinned until a write-back of it lands. The writers of their disks wake.
func (d *Driver) abandon(e *bufEntry, err error) {
	if e.inQueue {
		return
	}
	d.abandoned = append(d.abandoned, e)
	for _, ref := range e.refs {
		ref.rec.log.wbErr = err
	}
	d.wakePinned(e)
}

// wakePinned wakes the writers of the log disks holding e's records: e has
// just been abandoned or queued again, which may free or pin their next track.
func (d *Driver) wakePinned(e *bufEntry) {
	for _, ref := range e.refs {
		ref.rec.log.wake()
	}
}

// pinnedByAbandoned reports whether an abandoned entry pins track (see pins).
func (d *Driver) pinnedByAbandoned(ld *logDisk, track int) bool {
	return slices.ContainsFunc(d.abandoned, func(e *bufEntry) bool { return e.pins(ld, track) })
}

// retryPinning queues again the abandoned entries pinning track (an index in
// ld's allocation order) that round has not queued yet, and returns ld's
// write-back error if one that round queued is abandoned again.
func (d *Driver) retryPinning(ld *logDisk, track int, round int32) error {
	var err error
	kept := d.abandoned[:0]
	for _, e := range d.abandoned {
		switch {
		case !e.pins(ld, track):
			kept = append(kept, e)
		case e.round == round:
			kept = append(kept, e)
			err = ld.wbErr
		default:
			e.inQueue, e.round = true, round
			d.wbQueues[e.dev].push(e)
			d.wakePinned(e)
		}
	}
	clear(d.abandoned[len(kept):])
	d.abandoned = kept
	return err
}

// pins reports whether e references a record on track (an index in ld's
// allocation order).
func (e *bufEntry) pins(ld *logDisk, track int) bool {
	for _, ref := range e.refs {
		if ref.rec.log == ld && ref.rec.trackIdx == track {
			return true
		}
	}
	return false
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
		ld.wake()
	}
	// Advance the FIFO head past committed records: no reference to one
	// remains, so it is free.
	for ld.outstanding.Len() > 0 && ld.outstanding.Live()[0].done {
		d.free.records.put(ld.outstanding.Pop())
	}
	d.maybeAllIdle()
}

// StagedBytes returns the logical data staged, count × 512 bytes an extent,
// which the QoS throttle and trail.staged_mb_at_cut read; not its memory.
func (d *Driver) StagedBytes() int64 { return d.stagedBytes }

// bytes is the data e stages.
func (e *bufEntry) bytes() int64 { return int64(e.count) * geom.SectorSize }

// An image holds count sectors: each one's held length (geom.Held) in two
// little-endian bytes, then those bytes, or, where that saves nothing, the
// count × 512 bytes themselves, a length no packed image has. Images are kept
// by power-of-two class, class k those of 1<<k bytes or more: free holds
// the images staging let go, and a new image of class k is carved from
// chunk[k], which holds sim.ChunkLen(carved[k]) images of the class but
// no more than imageChunk bytes, so a class used a few times in a world
// wastes little, and one image held pins little.
type freeImages struct {
	free   [15][][]byte // 1<<14 bytes: MaxBatch whole sectors
	chunk  [15][]byte
	carved [15]int
}

// imageChunk is the allocator's largest small size class on a 64-bit build.
const imageChunk = 32 << 10

func (f *freeImages) put(img []byte) {
	k := bits.Len(uint(cap(img))) - 1
	f.free[k] = append(f.free[k], img)
}

// get returns an empty image of class k's capacity: a free one, or one carved
// from the class's chunk and capped, so appending to it never reaches the
// next.
func (f *freeImages) get(k int) []byte {
	if n := len(f.free[k]) - 1; n >= 0 {
		img := f.free[k][n][:0]
		f.free[k][n], f.free[k] = nil, f.free[k][:n]
		return img
	}
	if len(f.chunk[k]) == 0 {
		f.chunk[k] = make([]byte, min(sim.ChunkLen(f.carved[k]), max(imageChunk>>k, 1))<<k)
	}
	img := f.chunk[k][: 0 : 1<<k]
	f.chunk[k] = f.chunk[k][1<<k:]
	f.carved[k]++
	return img
}

// pack returns the image of data's sectors (at most MaxBatch), in an image of
// its class from f (f nil: a new one of its size).
func pack(f *freeImages, data []byte) []byte {
	var lens [MaxBatch]uint16
	size := 0
	for i := range len(data) / geom.SectorSize {
		lens[i] = uint16(geom.Held(data[i*geom.SectorSize : (i+1)*geom.SectorSize]))
		size += 2 + int(lens[i])
	}
	size = min(size, len(data))
	var img []byte
	if f == nil {
		img = make([]byte, 0, size)
	} else {
		img = f.get(bits.Len(uint(size - 1)))
	}
	if size == len(data) {
		return append(img, data...)
	}
	for i := range len(data) / geom.SectorSize {
		img = binary.LittleEndian.AppendUint16(img, lens[i])
		img = append(img, data[i*geom.SectorSize:][:lens[i]]...)
	}
	return img
}

// unpack fills out, whole sectors, from img, an image of count sectors,
// starting at sector from; the bytes past a sector's held length read zero.
func unpack(out, img []byte, count, from int) {
	if len(img) == count*geom.SectorSize {
		copy(out, img[from*geom.SectorSize:])
		return
	}
	for i := 0; len(out) > 0; i++ {
		n := int(binary.LittleEndian.Uint16(img))
		if i >= from {
			clear(out[copy(out, img[2:2+n]):geom.SectorSize])
			out = out[geom.SectorSize:]
		}
		img = img[2+n:]
	}
}

// freeEntry puts e on the free list. The refs array a superseding write grew
// past ref0 stays with it, cleared so a free entry pins no record, and so
// does its spanIDs array; the next extent staged in e appends into them.
func (d *Driver) freeEntry(e *bufEntry) {
	refs := e.refs[:cap(e.refs)]
	clear(refs)
	ids := e.spanIDs[:0]
	d.free.entries.put(e)
	if cap(refs) > len(e.ref0) {
		e.refs = refs[:0]
	}
	e.spanIDs = ids
}

// recycled is a driver's free lists and the slabs behind them.
type recycled struct {
	writes  freeList[pendingWrite]
	entries freeList[bufEntry]
	records freeList[record]
	reads   freeList[sched.Request]
	images  freeImages
}

// freeList recycles objects of one type: get returns a zeroed *T, a free one
// or one carved from the list's slab, and put zeroes x before keeping it, so
// a free object pins no image, record or span (freeEntry then hands a staging
// entry back its grown refs and spanIDs arrays, cleared).
type freeList[T any] struct {
	free sim.FIFO[*T]
	slab sim.Slab[T]
}

func (l *freeList[T]) get() *T {
	if l.free.Len() == 0 {
		return l.slab.New()
	}
	return l.free.Pop()
}

func (l *freeList[T]) put(x *T) {
	*x = *new(T)
	l.free.Push(x)
}
