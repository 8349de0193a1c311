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
// the write's image (pack); a write-back flight expands it into a buffer of
// its own, so stage frees the image a newer version replaces.
type bufEntry struct {
	data  []byte
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
	// inQueue is true while a write-back for this key is queued (only one
	// queued write-back per buffer: duplicate requests are skipped, §4.2).
	inQueue bool
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
	key := bufKey{dev: pw.devIdx, lba: pw.lba, count: pw.count}
	e := d.staging[key]
	if e == nil {
		e = d.free.entries.get()
		e.lba, e.count = pw.lba, pw.count
		if e.refs == nil {
			e.refs = e.ref0[:0]
		}
		d.staging[key] = e
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
		e.inQueue = true
		d.wbQueues[pw.devIdx].Push(key)
	}
	d.tlStaged.Set(float64(d.StagedBytes()), int64(d.env.Now()))
}

// wbWindow is the number of write-backs kept in flight per data disk, so
// the disk scheduler has a batch to elevator-sort and reads something to
// pre-empt.
const wbWindow = 8

// wbFlight is one in-flight write-back; buf, its slot's own, holds its data.
type wbFlight struct {
	key   bufKey
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
	q := d.wbQueues[devIdx]
	// Every flight of a window lands before the next window is taken, so one
	// set of keys and flights, with their refs and buffers, serves them all.
	window := &d.windows[devIdx]
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
			buf := slices.Grow(f.buf[:0], e.count*geom.SectorSize)[:e.count*geom.SectorSize]
			unpack(buf, e.data, e.count, 0)
			*f = wbFlight{key: key, entry: e, refs: append(f.refs[:0], e.refs...), ver: e.stamp, buf: buf,
				req: sched.Request{Write: true, LBA: key.lba, Count: e.count, Data: buf}}
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
				e.spanIDs = e.spanIDs[:0]
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
			n, err := d.dataQueues[devIdx].Serve(p, &f.req, maxWritebackTries, f.rq, f.cursor)
			d.stats.WritebackRetries += int64(n)
			if err != nil {
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
			d.stats.WriteBacks++
			d.tlWriteBacks.Inc(int64(p.Now()))
			// The flight's data is on the data disk; its log records are
			// about to be credited: the closing flight boundary.
			d.env.EmitProbe(p, sim.ProbeWBEnd, d.probeNames[devIdx], f.key.lba, f.req.Count)
			for _, ref := range f.refs {
				d.commitRef(ref)
			}
			// Release the entry and its image if no newer version arrived
			// mid-flight.
			if e := f.entry; d.staging[f.key] == e && e.stamp == f.ver && len(e.refs) == 0 && !e.inQueue {
				delete(d.staging, f.key)
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
