package trail

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"tracklog/internal/geom"
)

// CheckInvariants audits the driver's internal bookkeeping and returns the
// first violation found, or nil. It is cheap enough to call from tests
// after every scenario; production code never needs it.
//
// Invariants checked, per log disk:
//
//  1. busyCount[i] equals the number of not-yet-committed records on
//     usable track i, for every track the tail has reached.
//  2. outstanding is ordered by ascending sequence number.
//  3. The tail track's trackUsed population matches usedOnTail.
//  4. Every staged buffer's record references point at records of this
//     driver, and no fully committed record is still referenced.
//  5. Committed counts never exceed block counts.
//  6. The running StagedBytes counter equals the sum over the stripe index,
//     every staged entry is filed under its own stripe, and every staged
//     image is the one pack makes of its sectors.
//  7. The oldest outstanding record is not committed: commitRef pops
//     committed records off the head.
//  8. Every entry a write-back queue or a flight not yet landed holds is
//     staged, a queued one with inQueue set.
//  9. The abandoned list holds, once each, exactly the staged entries that
//     are not queued yet hold record references; a parked writer's next
//     track is pinned by one. Some live writer is not parked, or every log
//     disk is dead, holds no batch, and the driver failed its queue.
//
// Staged extents are audited in (dev, lba, count) order, so the violation
// reported is the same on every run.
func (d *Driver) CheckInvariants() error {
	type trackKey struct {
		log, track int
	}
	live := map[trackKey]int{}
	for li, ld := range d.logs {
		if out := ld.outstanding.Live(); len(out) > 0 && out[0].done {
			return fmt.Errorf("trail: log %d oldest outstanding record seq %d is committed", li, out[0].seq)
		}
		var prevSeq uint64
		for i, r := range ld.outstanding.Live() {
			if r.log != ld {
				return fmt.Errorf("trail: record seq %d filed under wrong log disk", r.seq)
			}
			if i > 0 && r.seq <= prevSeq {
				return fmt.Errorf("trail: outstanding out of order: seq %d after %d", r.seq, prevSeq)
			}
			prevSeq = r.seq
			if r.committed > r.blocks {
				return fmt.Errorf("trail: record seq %d committed %d > blocks %d", r.seq, r.committed, r.blocks)
			}
			if !r.done {
				live[trackKey{log: li, track: r.trackIdx}]++
			}
		}
		for i, busy := range ld.busyCount {
			if want := live[trackKey{log: li, track: i}]; int(busy) != want {
				return fmt.Errorf("trail: log %d track %d busyCount %d, want %d live records", li, i, busy, want)
			}
		}
		used := 0
		for _, u := range ld.trackUsed {
			if u {
				used++
			}
		}
		if used != ld.usedOnTail {
			return fmt.Errorf("trail: log %d tail track bitmap has %d used sectors, usedOnTail %d", li, used, ld.usedOnTail)
		}
		if ld.state == parked && !d.pinnedByAbandoned(ld, (ld.posIdx+1)%NumUsableTracks(ld.g)) {
			return fmt.Errorf("trail: log %d is parked on a track no abandoned entry pins", li)
		}
		if ld.state == dead && len(ld.batch) > 0 {
			return fmt.Errorf("trail: dead log %d holds a batch of %d writes", li, len(ld.batch))
		}
	}
	if live := slices.ContainsFunc(d.logs, func(ld *logDisk) bool { return ld.state != dead }); live && d.lastUnparked(nil) || !live && (d.failed == nil || d.logQ.Len() > 0) {
		return fmt.Errorf("trail: no live log disk takes the log queue (%d writes queued, driver failed: %v)", d.logQ.Len(), d.failed)
	}
	var entries []*bufEntry
	for _, e := range d.staged.buckets {
		for ; e != nil; e = e.chain {
			entries = append(entries, e)
		}
	}
	slices.SortFunc(entries, func(a, b *bufEntry) int {
		return cmp.Or(cmp.Compare(a.dev, b.dev), cmp.Compare(a.lba, b.lba), cmp.Compare(a.count, b.count))
	})
	if len(entries) != d.staged.n {
		return fmt.Errorf("trail: stripe index counts %d entries, its buckets hold %d", d.staged.n, len(entries))
	}
	var staged int64
	abandoned := 0
	for _, e := range entries {
		staged += e.bytes()
		if is := !e.inQueue && len(e.refs) > 0; is != slices.Contains(d.abandoned, e) {
			return fmt.Errorf("trail: staged dev %d lba %d is abandoned %v, listed %v", e.dev, e.lba, is, !is)
		} else if is {
			abandoned++
		}
		if d.staged.find(e.dev, e.lba, e.count) != e {
			return fmt.Errorf("trail: staged dev %d lba %d count %d is not filed under its stripe", e.dev, e.lba, e.count)
		}
		buf := make([]byte, max(e.count, 0)*geom.SectorSize)
		if unpack(buf, e.data, e.count, 0); e.count <= 0 || !bytes.Equal(pack(nil, buf), e.data) {
			return fmt.Errorf("trail: staged dev %d lba %d has count %d and a %d-byte image of other sectors", e.dev, e.lba, e.count, len(e.data))
		}
		for _, ref := range e.refs {
			if ref.rec == nil {
				return fmt.Errorf("trail: staged dev %d lba %d holds nil record ref", e.dev, e.lba)
			}
			if ref.rec.done {
				return fmt.Errorf("trail: staged dev %d lba %d references fully committed record seq %d", e.dev, e.lba, ref.rec.seq)
			}
		}
	}
	if staged != d.stagedBytes {
		return fmt.Errorf("trail: stagedBytes counter %d, stripe index holds %d", d.stagedBytes, staged)
	}
	if abandoned != len(d.abandoned) {
		return fmt.Errorf("trail: %d staged entries are abandoned, the list holds %d", abandoned, len(d.abandoned))
	}
	for dev := range d.wbQueues {
		for e := d.wbQueues[dev].head; e != nil; e = e.next {
			if !e.inQueue || d.staged.find(dev, e.lba, e.count) != e {
				return fmt.Errorf("trail: data disk %d queues a write-back of lba %d that is not staged and queued", dev, e.lba)
			}
		}
		for _, f := range d.windows[dev] {
			if e := f.entry; e != nil && d.staged.find(dev, e.lba, e.count) != e {
				return fmt.Errorf("trail: data disk %d's write-back of lba %d is in flight for an entry no longer staged", dev, e.lba)
			}
		}
	}
	return nil
}
