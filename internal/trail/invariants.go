package trail

import (
	"bytes"
	"fmt"

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
//  6. The running StagedBytes counter equals the sum over the staging map,
//     and every staged image is the one pack makes of its sectors.
//  7. The oldest outstanding record is not committed: commitRef pops
//     committed records off the head.
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
	}
	var staged int64
	for key, e := range d.staging {
		staged += e.bytes()
		buf := make([]byte, max(e.count, 0)*geom.SectorSize)
		if unpack(buf, e.data, e.count, 0); e.count <= 0 || !bytes.Equal(pack(nil, buf), e.data) {
			return fmt.Errorf("trail: staged %v has count %d and a %d-byte image of other sectors", key, e.count, len(e.data))
		}
		for _, ref := range e.refs {
			if ref.rec == nil {
				return fmt.Errorf("trail: staged %v holds nil record ref", key)
			}
			if ref.rec.done {
				return fmt.Errorf("trail: staged %v references fully committed record seq %d", key, ref.rec.seq)
			}
		}
	}
	if staged != d.stagedBytes {
		return fmt.Errorf("trail: stagedBytes counter %d, staging map holds %d", d.stagedBytes, staged)
	}
	return nil
}
