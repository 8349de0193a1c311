package trail

import (
	"errors"
	"fmt"
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

		g := log.Geom()
		usable := UsableTracks(g)

		// Phase 1: locate the youngest active write record on this disk.
		start := p.Now()
		youngest, err := locateYoungest(p, log, g, usable, hdr.Epoch, opts.SequentialScan, rep)
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
		recs, torn, err := rebuildChain(p, log, hdr.Epoch, youngest, opts.IgnoreLogHead, rep)
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
			for i, b := range rec.hdr.Blocks {
				rep.Pending = append(rep.Pending, PendingBlock{
					Dev:     b.Dev,
					DataLBA: b.DataLBA,
					Data:    rec.data[i*geom.SectorSize : (i+1)*geom.SectorSize],
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

// loadedRecord pairs a parsed record header with its restored data.
type loadedRecord struct {
	hdr  *RecordHeader
	data []byte
}

// readTrackSalvage reads one full track, salvaging around unreadable
// sectors: transient faults are retried (bounded), and a media-error sector
// is skipped, leaving zeroes in its place — zero bytes can never decode as a
// record header, and any record image spanning the hole fails its CRC, so
// the scan treats the damage as torn space rather than aborting recovery.
// Each read lands in the image directly: Access never writes the sector that
// failed, so the hole stays zero.
func readTrackSalvage(p *sim.Proc, log *disk.Disk, base int64, spt int, rep *RecoverReport) ([]byte, error) {
	out := make([]byte, spt*geom.SectorSize)
	lba := base
	end := base + int64(spt)
	retries := 0
	for lba < end {
		req := disk.Request{LBA: lba, Count: int(end - lba), Data: out[(lba-base)*geom.SectorSize:]}
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
			return nil, fmt.Errorf("trail: recovery read at lba %d: %w", lba, res.Err)
		}
	}
	return out, nil
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

// scanTrack reads one full track and reports the records of the target epoch
// found on it.
func scanTrack(p *sim.Proc, log *disk.Disk, g *geom.Geometry, track int, epoch uint32, rep *RecoverReport) (trackScan, error) {
	cyl, head := g.TrackOf(track)
	spt := g.SPTAt(cyl)
	base := g.TrackStartLBA(cyl, head)
	var ts trackScan
	img, err := readTrackSalvage(p, log, base, spt, rep)
	if err != nil {
		return ts, err
	}

	for s := 0; s < spt; s++ {
		sector := img[s*geom.SectorSize : (s+1)*geom.SectorSize]
		hdr, err := DecodeRecordHeader(sector)
		if err != nil || hdr.Epoch != epoch {
			continue
		}
		if hdr.HeaderLBA != base+int64(s) {
			continue // stale copy relocated by a reformat; not this epoch's record
		}
		end := s + 1 + len(hdr.Blocks)
		if end > spt {
			continue // a record never crosses a track boundary
		}
		if !ts.any || hdr.Seq > ts.maxSeq {
			ts.any, ts.maxSeq = true, hdr.Seq
		}
		rec := img[s*geom.SectorSize : end*geom.SectorSize]
		imgCopy := make([]byte, len(rec))
		copy(imgCopy, rec)
		data, err := ExtractData(hdr, imgCopy)
		if err != nil {
			continue // torn record
		}
		if ts.best == nil || hdr.Seq > ts.best.hdr.Seq {
			ts.best = &loadedRecord{hdr: hdr, data: data}
		}
	}
	return ts, nil
}

// locateYoungest finds the record with the highest sequence number of the
// given epoch. Allocation starts each epoch at the first usable track and
// proceeds in order, so written tracks form a prefix of usable (plus a
// wrapped tail in very long runs); binary search finds the boundary in
// O(lg N) track scans (§3.3, first optimization). If the structure is not a
// clean prefix (e.g. the log wrapped), it falls back to a sequential scan.
func locateYoungest(p *sim.Proc, log *disk.Disk, g *geom.Geometry, usable []int, epoch uint32, sequential bool, rep *RecoverReport) (*loadedRecord, error) {
	scan := func(i int) (trackScan, error) {
		rep.TracksScanned++
		return scanTrack(p, log, g, usable[i], epoch, rep)
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
		return locateYoungest(p, log, g, usable, epoch, true, rep)
	}
	lo, hi := 0, len(usable)-1 // invariant: track lo is written
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
	if lo == len(usable)-1 || loScan.best == nil {
		return locateYoungest(p, log, g, usable, epoch, true, rep)
	}
	return loScan.best, nil
}

// rebuildChain walks prev_sect pointers from the youngest record back to
// its log_head (or the epoch start), loading each pending record.
// Consecutive records cluster on a few tracks, so the walk reads whole
// tracks rather than issuing two small reads per record, and holds one: the
// image of the track it is on (§3.3 reads the log a track at a time). A
// pending chain never returns to a track it has left — a track is reused
// only after its records are written back — so the window loses nothing.
// The one walk that can return is the IgnoreLogHead ablation on a log that
// wrapped within its epoch; it reads that track again and finds the same
// bytes.
func rebuildChain(p *sim.Proc, log *disk.Disk, epoch uint32, youngest *loadedRecord, ignoreLogHead bool, rep *RecoverReport) ([]*loadedRecord, int, error) {
	stopLBA := youngest.hdr.LogHead
	records := []*loadedRecord{youngest}
	torn := 0
	cur := youngest
	win := trackWindow{track: -1}
	for {
		if !ignoreLogHead && cur.hdr.HeaderLBA == stopLBA {
			break // reached the oldest uncommitted record
		}
		prev := cur.hdr.PrevSect
		if prev < 0 {
			break // first record of the epoch
		}
		rec, err := loadRecord(p, log, prev, epoch, &win, rep)
		if errors.Is(err, ErrNotRecord) || errors.Is(err, ErrTornRecord) {
			if errors.Is(err, ErrTornRecord) {
				torn++
			}
			break // chain ends at reused or torn space
		}
		if err != nil {
			return nil, torn, err
		}
		records = append(records, rec)
		cur = rec
	}
	return records, torn, nil
}

// trackWindow is the one full-track image the chain walk holds: track is its
// index, or -1 before the first read.
type trackWindow struct {
	track int
	img   []byte
}

// loadRecord reads and validates one record at the given header LBA, from
// win when the record lies on its track, else from a fresh read of the full
// track that holds it, which becomes the window.
func loadRecord(p *sim.Proc, log *disk.Disk, headerLBA int64, epoch uint32, win *trackWindow, rep *RecoverReport) (*loadedRecord, error) {
	g := log.Geom()
	a := g.ToCHS(headerLBA)
	if track := g.TrackIndex(a.Cyl, a.Head); track != win.track {
		img, err := readTrackSalvage(p, log, g.TrackStartLBA(a.Cyl, a.Head), g.SPTAt(a.Cyl), rep)
		if err != nil {
			return nil, err
		}
		win.track, win.img = track, img
	}
	img := win.img
	off := a.Sector * geom.SectorSize
	hdr, err := DecodeRecordHeader(img[off : off+geom.SectorSize])
	if err != nil {
		return nil, err
	}
	if hdr.Epoch != epoch || hdr.HeaderLBA != headerLBA {
		return nil, ErrNotRecord
	}
	end := off + (1+len(hdr.Blocks))*geom.SectorSize
	if end > len(img) {
		return nil, fmt.Errorf("%w: record crosses track end", ErrNotRecord)
	}
	recImg := make([]byte, end-off)
	copy(recImg, img[off:end])
	data, err := ExtractData(hdr, recImg)
	if err != nil {
		return nil, err
	}
	return &loadedRecord{hdr: hdr, data: data}, nil
}

// replay writes the pending blocks to the data disks in record sequence
// order, coalescing contiguous runs within each record into single writes.
func replay(p *sim.Proc, devs map[blockdev.DevID]blockdev.Device, records []*loadedRecord) (int, error) {
	n := 0
	for _, rec := range records {
		blocks := rec.hdr.Blocks
		for i := 0; i < len(blocks); {
			j := i + 1
			for j < len(blocks) && blocks[j].Dev == blocks[i].Dev && blocks[j].DataLBA == blocks[i].DataLBA+int64(j-i) {
				j++
			}
			dev, ok := devs[blocks[i].Dev]
			if !ok {
				return n, fmt.Errorf("trail: recovery references unknown device %v", blocks[i].Dev)
			}
			run := rec.data[i*geom.SectorSize : j*geom.SectorSize]
			if err := dev.Write(p, blocks[i].DataLBA, j-i, run); err != nil {
				return n, fmt.Errorf("trail: replaying block: %w", err)
			}
			n += j - i
			i = j
		}
	}
	return n, nil
}
