package trail

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/span"
)

// RecoverOptions tunes the recovery procedure.
type RecoverOptions struct {
	// SkipWriteBack ends recovery after rebuilding the pending records
	// without propagating them to the data disks (paper §5.3 / Fig 4(b):
	// skipping the random-access write-back phase is safe because the log
	// copy persists, and is ~3.5x faster at Q=256).
	SkipWriteBack bool
	// SequentialScan disables the binary search and locates the youngest
	// record by scanning every track (ablation for the first optimization
	// in §3.3).
	SequentialScan bool
	// IgnoreLogHead walks the record chain all the way to the start of the
	// epoch instead of stopping at the youngest record's log_head pointer
	// (ablation for the second optimization in §3.3).
	IgnoreLogHead bool
	// Spans, when non-nil, records the recovery as one span tree: a single
	// "recover" request whose children time the locate (one per crashed
	// disk, A = disk index), rebuild, and write-back phases. The phases tile
	// the recovery end to end — everything between them is unclocked
	// bookkeeping — so the tree obeys the same exact-attribution invariant
	// as the I/O paths.
	Spans *span.Recorder
}

// PendingBlock is one data sector reconstructed from the log.
type PendingBlock struct {
	Dev     blockdev.DevID
	DataLBA int64
	Data    []byte
	Seq     uint64
}

// RecoverReport describes a completed recovery.
type RecoverReport struct {
	// Clean is true when the disk was shut down cleanly and nothing needed
	// recovery.
	Clean bool
	// Epoch is the crashed epoch that was recovered.
	Epoch uint32
	// TracksScanned counts full-track scans during the locate phase.
	TracksScanned int
	// RecordsFound counts pending write records rebuilt; TornRecords
	// counts records discarded because a crash tore their data.
	RecordsFound, TornRecords int
	// BlocksReplayed counts data sectors written back to the data disks.
	BlocksReplayed int
	// MediaErrorSectors counts unreadable log sectors skipped over during
	// the scan (their contents are treated as blank; any record image they
	// belonged to fails its CRC and is discarded as torn). RetriedReads
	// counts transient read faults retried during recovery.
	MediaErrorSectors int
	RetriedReads      int
	// Pending holds the reconstructed blocks when write-back was skipped.
	Pending []PendingBlock
	// Phase timings (paper Fig 4(a)): locating the youngest record,
	// rebuilding the record chain, and writing blocks back.
	LocateTime, RebuildTime, WriteBackTime time.Duration
}

// Total returns the end-to-end recovery time.
func (r *RecoverReport) Total() time.Duration {
	return r.LocateTime + r.RebuildTime + r.WriteBackTime
}

// Recover runs Trail's crash recovery on a log disk: it locates the
// youngest active write record (binary search over tracks), rebuilds the
// chain of pending records through their prev_sect pointers (bounded by the
// log_head field), and replays the pending blocks onto the data disks in
// sequence order. All I/O is timed; run it from a simulated process and
// measure p's elapsed time for end-to-end cost.
//
// devs maps record device IDs to the data disks to replay onto; it may be
// nil when SkipWriteBack is set.
func Recover(p *sim.Proc, log *disk.Disk, devs map[blockdev.DevID]blockdev.Device, opts RecoverOptions) (*RecoverReport, error) {
	return RecoverLogs(p, []*disk.Disk{log}, devs, opts)
}

// RecoverLogs recovers a (possibly multi-log-disk) Trail system: each log
// disk is located and rebuilt independently — record chains never cross
// disks — and the pending records of all disks are merged by their global
// sequence numbers before replay, preserving issue order.
func RecoverLogs(p *sim.Proc, logs []*disk.Disk, devs map[blockdev.DevID]blockdev.Device, opts RecoverOptions) (*RecoverReport, error) {
	rep := &RecoverReport{Clean: true}
	rq := opts.Spans.Start(span.KRecover, "trail", "log", 0, len(logs), int64(p.Now()))
	var records []*loadedRecord
	var crashed []*disk.Disk
	var crashedHdrs []*DiskHeader
	win := &trackWindow{}
	for li, log := range logs {
		hdr, err := ReadHeader(log)
		if err != nil {
			rq.Finish(int64(p.Now()), true)
			return nil, err
		}
		if hdr.Epoch > rep.Epoch {
			rep.Epoch = hdr.Epoch
		}
		if hdr.CleanShutdown {
			continue
		}
		rep.Clean = false
		crashed = append(crashed, log)
		crashedHdrs = append(crashedHdrs, hdr)

		// Phase 1: locate the youngest active write record on this disk.
		start := p.Now()
		youngest, err := locateYoungest(p, log, hdr.Epoch, opts.SequentialScan, win, rep)
		rep.LocateTime += p.Now().Sub(start)
		rq.ChildAB(span.PLocate, int64(start), int64(p.Now()), int64(li), 0)
		if err != nil {
			rq.Finish(int64(p.Now()), true)
			return nil, err
		}
		if youngest == nil {
			continue // crashed before writing any record this epoch
		}

		// Phase 2: rebuild the pending record chain back to log_head.
		start = p.Now()
		recs, torn, err := rebuildChain(p, log, hdr.Epoch, youngest, opts.IgnoreLogHead, win, rep)
		rep.RebuildTime += p.Now().Sub(start)
		rq.ChildAB(span.PRebuild, int64(start), int64(p.Now()), int64(li), 0)
		if err != nil {
			rq.Finish(int64(p.Now()), true)
			return nil, err
		}
		rep.TornRecords += torn
		records = append(records, recs...)
	}
	if rep.Clean {
		rq.Finish(int64(p.Now()), false)
		return rep, nil
	}
	rep.RecordsFound = len(records)

	// Replay must follow issue order across all log disks ("propagated to
	// the data disk in the same temporal order as they were issued",
	// §3.3); sequence numbers are global.
	sort.Slice(records, func(i, j int) bool { return records[i].hdr.Seq < records[j].hdr.Seq })

	// Phase 3: write pending blocks back to the data disks.
	start := p.Now()
	if opts.SkipWriteBack {
		for _, rec := range records {
			data := make([]byte, len(rec.hdr.Blocks)*geom.SectorSize)
			unpack(data, rec.data, len(rec.hdr.Blocks), 0)
			for i, b := range rec.hdr.Blocks {
				rep.Pending = append(rep.Pending, PendingBlock{
					Dev:     b.Dev,
					DataLBA: b.DataLBA,
					Data:    data[i*geom.SectorSize : (i+1)*geom.SectorSize],
					Seq:     rec.hdr.Seq,
				})
			}
		}
	} else {
		n, err := replay(p, devs, records)
		if err != nil {
			rq.ChildAB(span.PWriteBack, int64(start), int64(p.Now()), int64(n), 0)
			rq.Finish(int64(p.Now()), true)
			return nil, err
		}
		rep.BlocksReplayed = n
		for i, log := range crashed {
			markClean(log, crashedHdrs[i])
		}
	}
	rep.WriteBackTime = p.Now().Sub(start)
	rq.ChildAB(span.PWriteBack, int64(start), int64(p.Now()), int64(rep.BlocksReplayed), 0)
	rq.Finish(int64(p.Now()), false)
	return rep, nil
}

// markClean rewrites the header so the next driver initialization proceeds.
func markClean(log *disk.Disk, hdr *DiskHeader) {
	hdr.CleanShutdown = true
	// Header write failures are impossible here: the header encoded at
	// format time and its geometry have not changed shape.
	if err := writeHeaderAll(log, hdr); err != nil {
		panic(fmt.Sprintf("trail: rewriting recovered header: %v", err))
	}
}

// loadedRecord pairs a parsed record header with its restored data's image.
type loadedRecord struct {
	hdr  *RecordHeader
	data []byte
}

// trackWindow is the one track image a recovery reads into, for the locate
// scans and the chain walk alike, so N tracks read allocate one image, not N.
// track is the track img holds, or -1 when the chain walk must read afresh.
type trackWindow struct {
	track int
	img   []byte
}

// keep replaces rec's data, its payload checked in place in the window, with
// its image, the one copy recovery makes: first bytes restored, then markers.
func keep(rec *loadedRecord) *loadedRecord {
	for i, b := range rec.hdr.Blocks {
		rec.data[i*geom.SectorSize] = b.FirstDataByte
	}
	img := pack(nil, rec.data)
	for i := range rec.hdr.Blocks {
		rec.data[i*geom.SectorSize] = dataFirstByte
	}
	rec.data = img
	return rec
}

// readTrackSalvage reads one full track into the window, returning the LBA
// it starts at, and salvages around unreadable sectors: transient faults are
// retried (bounded), and a media-error sector is skipped, leaving zeroes in
// its place — zero bytes never decode as a record header, and a record image
// spanning the hole fails its CRC, so the scan sees torn space rather than
// aborting. The image is cleared first and each read lands in it directly:
// Access never writes the sector that failed, so the hole stays zero.
func (w *trackWindow) readTrackSalvage(p *sim.Proc, log *disk.Disk, track int, rep *RecoverReport) (int64, error) {
	g := log.Geom()
	cyl, head := g.TrackOf(track)
	base, spt := g.TrackStartLBA(cyl, head), g.SPTAt(cyl)
	w.track, w.img = track, slices.Grow(w.img[:0], spt*geom.SectorSize)[:spt*geom.SectorSize]
	clear(w.img)
	lba, end, retries := base, base+int64(spt), 0
	for lba < end {
		req := disk.Request{LBA: lba, Count: int(end - lba), Data: w.img[(lba-base)*geom.SectorSize:]}
		res := log.Access(p, &req)
		lba += int64(res.Transferred)
		switch {
		case res.Err == nil:
			// Full extent transferred; the loop condition ends the scan.
		case blockdev.IsTransient(res.Err) && retries < maxReadRetries:
			retries++
			rep.RetriedReads++
		case errors.Is(res.Err, blockdev.ErrMediaError):
			rep.MediaErrorSectors++
			lba++ // leave the unreadable sector zeroed and move on
		default:
			return 0, fmt.Errorf("trail: recovery read at lba %d: %w", lba, res.Err)
		}
	}
	return base, nil
}

// trackScan is the result of scanning one track for records of an epoch.
type trackScan struct {
	// best is the valid (untorn) record with the highest sequence number,
	// or nil when the track holds none.
	best *loadedRecord
	// any reports whether the track holds any decodable record header of
	// the epoch — valid or torn; maxSeq is the highest sequence number
	// among them. Torn traces (failed or interrupted record writes) still
	// prove the allocator reached this track, which the locate phase's
	// binary search relies on when media faults leave tracks with garbage
	// but no intact record.
	any    bool
	maxSeq uint64
}

// scanTrack reads one full track into win and reports the records of the
// target epoch found on it.
func scanTrack(p *sim.Proc, log *disk.Disk, track int, epoch uint32, win *trackWindow, rep *RecoverReport) (trackScan, error) {
	var ts trackScan
	base, err := win.readTrackSalvage(p, log, track, rep)
	if err != nil {
		return ts, err
	}
	for s := 0; s < len(win.img)/geom.SectorSize; s++ {
		hdr, data, err := DecodeRecord(win.img, base, s, epoch)
		if hdr == nil {
			continue
		}
		if !ts.any || hdr.Seq > ts.maxSeq {
			ts.any, ts.maxSeq = true, hdr.Seq
		}
		if err != nil {
			continue // torn record
		}
		if ts.best == nil || hdr.Seq > ts.best.hdr.Seq {
			ts.best = &loadedRecord{hdr: hdr, data: data}
		}
	}
	if ts.best != nil {
		keep(ts.best)
	}
	return ts, nil
}

// DecodeRecord decodes the record whose header is sector s of img, the image
// of the whole track starting at LBA base, with its data sectors in img. The
// header is nil unless sector s holds a header of epoch naming its own LBA (a
// stale copy relocated by a reformat does not) whose record ends on the
// track, as every record does. A torn record returns its header with the
// checkPayload error: torn traces still prove the allocator reached it.
func DecodeRecord(img []byte, base int64, s int, epoch uint32) (*RecordHeader, []byte, error) {
	off := s * geom.SectorSize
	hdr, err := DecodeRecordHeader(img[off : off+geom.SectorSize])
	if err != nil {
		return nil, nil, err
	}
	if hdr.Epoch != epoch || hdr.HeaderLBA != base+int64(s) {
		return nil, nil, ErrNotRecord
	}
	end := off + (1+len(hdr.Blocks))*geom.SectorSize
	if end > len(img) {
		return nil, nil, fmt.Errorf("%w: record crosses track end", ErrNotRecord)
	}
	payload := img[off+geom.SectorSize : end]
	return hdr, payload, checkPayload(hdr, payload)
}

// locateYoungest finds the record with the highest sequence number of the
// given epoch. Allocation starts each epoch at the first usable track and
// proceeds in order, so written tracks form a prefix of usable (plus a
// wrapped tail in very long runs); binary search finds the boundary in
// O(lg N) track scans (§3.3, first optimization). If the structure is not a
// clean prefix (e.g. the log wrapped), it falls back to a sequential scan.
func locateYoungest(p *sim.Proc, log *disk.Disk, epoch uint32, sequential bool, win *trackWindow, rep *RecoverReport) (*loadedRecord, error) {
	usable := NumUsableTracks(log.Geom())
	scan := func(i int) (trackScan, error) {
		rep.TracksScanned++
		return scanTrack(p, log, UsableTrack(log.Geom(), i), epoch, win, rep)
	}
	if sequential {
		// The unoptimized baseline: scan every track (no assumptions
		// about layout at all), as the paper's recovery would without its
		// first optimization. Also the fallback whenever media damage
		// makes the prefix structure untrustworthy.
		var best *loadedRecord
		for i := range usable {
			ts, err := scan(i)
			if err != nil {
				return nil, err
			}
			if ts.best != nil && (best == nil || ts.best.hdr.Seq > best.hdr.Seq) {
				best = ts.best
			}
		}
		return best, nil
	}

	// Binary search for the last written track of the epoch prefix. Torn
	// traces count as "written": a track full of failed-write garbage was
	// still reached by the allocator, and the intact records may all live on
	// later tracks.
	first, err := scan(0)
	if err != nil {
		return nil, err
	}
	if !first.any {
		// Nothing decodable on the first track. On a healthy disk that
		// means the epoch wrote no records at all — but media faults can
		// burn a track without leaving a decodable trace, so fall back to
		// the sequential scan rather than silently dropping the epoch.
		return locateYoungest(p, log, epoch, true, win, rep)
	}
	lo, hi := 0, usable-1 // invariant: track lo is written
	loScan := first
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		ts, err := scan(mid)
		if err != nil {
			return nil, err
		}
		if ts.any && ts.maxSeq >= loScan.maxSeq {
			lo, loScan = mid, ts
		} else {
			hi = mid - 1
		}
	}
	// lo is the last written track, and its max-seq intact record is the
	// youngest of the epoch prefix. Two cases force the sequential
	// fallback: a wrapped log (last usable track written, so the prefix
	// structure no longer holds), and a last track whose records are all
	// torn (the youngest intact record is then on an earlier track the
	// search cannot identify).
	if lo == usable-1 || loScan.best == nil {
		return locateYoungest(p, log, epoch, true, win, rep)
	}
	return loScan.best, nil
}

// rebuildChain walks prev_sect pointers from the youngest record back to
// its log_head (or the epoch start), loading each pending record. Sequence
// numbers fall strictly along a genuine chain, so the walk ends at the first
// record that is not older than its successor and cannot loop.
// Consecutive records cluster on a few tracks, so the walk reads whole tracks
// into win, starting afresh, rather than issuing two small reads per record
// (§3.3 reads the log a track at a time). A pending chain never returns to a
// track it has left — a track is reused only after its records are written
// back — so the window loses nothing.
// The one walk that can return is the IgnoreLogHead ablation on a log that
// wrapped within its epoch; it reads that track again and finds the same
// bytes.
func rebuildChain(p *sim.Proc, log *disk.Disk, epoch uint32, youngest *loadedRecord, ignoreLogHead bool, win *trackWindow, rep *RecoverReport) ([]*loadedRecord, int, error) {
	stopLBA := youngest.hdr.LogHead
	records := []*loadedRecord{youngest}
	torn := 0
	cur := youngest
	win.track = -1
	for {
		if !ignoreLogHead && cur.hdr.HeaderLBA == stopLBA {
			break // reached the oldest uncommitted record
		}
		prev := cur.hdr.PrevSect
		if prev < 0 {
			break // first record of the epoch
		}
		rec, err := loadRecord(p, log, prev, epoch, win, rep)
		if errors.Is(err, ErrNotRecord) || errors.Is(err, ErrTornRecord) {
			if errors.Is(err, ErrTornRecord) {
				torn++
			}
			break // chain ends at reused or torn space
		}
		if err != nil {
			return nil, torn, err
		}
		if rec.hdr.Seq >= cur.hdr.Seq {
			break // a newer record reuses the space, so the chain ends here
		}
		records = append(records, rec)
		cur = rec
	}
	return records, torn, nil
}

// loadRecord reads and validates one record at the given header LBA, from
// win when the record lies on its track, else from a fresh read of the full
// track that holds it, which becomes the window.
func loadRecord(p *sim.Proc, log *disk.Disk, headerLBA int64, epoch uint32, win *trackWindow, rep *RecoverReport) (*loadedRecord, error) {
	g := log.Geom()
	if headerLBA >= g.TotalSectors() {
		return nil, fmt.Errorf("%w: prev_sect %d is off the disk", ErrNotRecord, headerLBA)
	}
	a := g.ToCHS(headerLBA)
	if track := g.TrackIndex(a.Cyl, a.Head); track != win.track {
		if _, err := win.readTrackSalvage(p, log, track, rep); err != nil {
			return nil, err
		}
	}
	hdr, data, err := DecodeRecord(win.img, headerLBA-int64(a.Sector), a.Sector, epoch)
	if err != nil {
		return nil, err
	}
	return keep(&loadedRecord{hdr: hdr, data: data}), nil
}

// replay writes the pending blocks to the data disks in record sequence
// order, coalescing contiguous runs within each record into single writes; a
// packed image's runs are expanded into one buffer (Write keeps nothing).
func replay(p *sim.Proc, devs map[blockdev.DevID]blockdev.Device, records []*loadedRecord) (int, error) {
	n, buf := 0, make([]byte, MaxBatch*geom.SectorSize)
	for _, rec := range records {
		blocks := rec.hdr.Blocks
		for i := 0; i < len(blocks); {
			j := i + 1
			for j < len(blocks) && blocks[j].Dev == blocks[i].Dev && blocks[j].DataLBA == blocks[i].DataLBA+int64(j-i) {
				j++
			}
			dev, ok := devs[blocks[i].Dev]
			if !ok {
				return n, fmt.Errorf("%w: record %d references unknown device %v", ErrNotRecord, rec.hdr.Seq, blocks[i].Dev)
			}
			run := buf[:(j-i)*geom.SectorSize]
			if len(rec.data) == len(blocks)*geom.SectorSize {
				run = rec.data[i*geom.SectorSize : j*geom.SectorSize]
			} else {
				unpack(run, rec.data, len(blocks), i)
			}
			if err := dev.Write(p, blocks[i].DataLBA, j-i, run); err != nil {
				return n, fmt.Errorf("trail: replaying block: %w", err)
			}
			n += j - i
			i = j
		}
	}
	return n, nil
}
