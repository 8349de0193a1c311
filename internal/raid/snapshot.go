package raid

import (
	"fmt"

	"tracklog/internal/snapshot"
)

const arraySnapKind = "raid.Array"

// walk is the array's snapshot format: geometry identity, the failed device,
// per-device known-bad sector sets in sorted order, and the activity
// counters. The member devices snapshot separately.
func (a *Array) walk(c *snapshot.Codec) {
	nDevs, chunk := len(a.devs), a.chunk
	c.Int(&nDevs)
	c.Int(&chunk)
	if nDevs != len(a.devs) || chunk != a.chunk {
		// Shape first: the per-device sections below depend on it.
		c.Fail(fmt.Errorf("%w: snapshot of a %d-dev chunk-%d array, restoring into %d-dev chunk-%d",
			snapshot.ErrMismatch, nDevs, chunk, len(a.devs), a.chunk))
		return
	}
	c.Int(&a.failed)
	if a.failed < -1 || a.failed >= nDevs {
		c.Fail(fmt.Errorf("%w: failed device %d of %d", snapshot.ErrCorrupt, a.failed, nDevs))
	}
	if c.Decoding() {
		a.bad = make([]map[int64]bool, nDevs)
	}
	for dev := range a.bad {
		snapshot.SortedMap(c, &a.bad[dev], func(c *snapshot.Codec, lba int64, bad *bool) {
			*bad = true
			if lba >= a.devs[dev].Sectors() {
				c.Fail(fmt.Errorf("%w: bad sector %d past the end of device %d", snapshot.ErrCorrupt, lba, dev))
			}
		})
	}

	snapshot.I64(c, &a.stats.Reads)
	snapshot.I64(c, &a.stats.Writes)
	snapshot.I64(c, &a.stats.SmallWrites)
	snapshot.I64(c, &a.stats.FullStripes)
	snapshot.I64(c, &a.stats.DeviceReads)
	snapshot.I64(c, &a.stats.DeviceWrites)
	snapshot.I64(c, &a.stats.DegradedReads)
	snapshot.I64(c, &a.stats.Reconstructions)
	snapshot.I64(c, &a.stats.MediaErrorReads)
	snapshot.I64(c, &a.stats.MediaErrorWrites)
	snapshot.I64(c, &a.stats.DeviceFailures)
	snapshot.I64(c, &a.stats.ScrubPasses)
	snapshot.I64(c, &a.stats.ScrubRepaired)
	snapshot.I64(c, &a.stats.ScrubUnrepairable)
	snapshot.I64(c, &a.stats.Shed)
	snapshot.I64(c, &a.stats.Expired)
	snapshot.I64(c, &a.stats.ScrubYields)
}

// Snapshot encodes the array's fault state (see walk). The array must be
// quiescent: no operation may hold a stripe lock.
func (a *Array) Snapshot() []byte {
	if len(a.locked) > 0 {
		panic("raid: snapshot with stripe locks held")
	}
	return snapshot.Encode(arraySnapKind, 1, a.walk)
}

// Restore adopts a state produced by Snapshot on an array of the same shape.
// The walk decodes into a copy of the array with bad-sector sets of its own,
// so a restored array shares nothing with the snapshot's source. Both the
// snapshot and the target must be quiescent (no stripe locks held).
func (a *Array) Restore(data []byte) error {
	s := *a
	if err := snapshot.Decode(data, arraySnapKind, 1, s.walk); err != nil {
		return err
	}
	if len(a.locked) > 0 {
		return fmt.Errorf("%w: raid array has %d stripe locks held", snapshot.ErrNotQuiescent, len(a.locked))
	}
	*a = s
	return nil
}
