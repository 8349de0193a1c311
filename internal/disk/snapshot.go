package disk

import (
	"fmt"

	"tracklog/internal/geom"
	"tracklog/internal/snapshot"
)

const diskSnapKind = "disk.Disk"

// walk is the drive's snapshot format: identity (model name, capacity), arm
// position, last-command time, activity counters, and every written sector in
// LBA order, each expanded to its full 512 bytes. Decoding writes each sector
// into the receiver's own store, so a restored drive shares nothing with the
// snapshot's source or its bytes — the isolation the crash explorer's
// branches rely on.
func (d *Disk) walk(c *snapshot.Codec) {
	name, total := d.params.Name, d.params.Geom.TotalSectors()
	c.String(&name)
	snapshot.I64(c, &total)
	if name != d.params.Name || total != d.params.Geom.TotalSectors() {
		c.Fail(fmt.Errorf("%w: snapshot of drive %q (%d sectors), restoring into %q (%d sectors)",
			snapshot.ErrMismatch, name, total, d.params.Name, d.params.Geom.TotalSectors()))
	}
	// SeekDeratePPM is the one Params knob that can change mid-run
	// (SetSeekDeratePPM models aging hardware); a restored drive must seek
	// at the captured drive's speed or replayed timings diverge.
	snapshot.I64(c, &d.params.SeekDeratePPM)
	c.Int(&d.armCyl)
	c.Int(&d.armHead)
	snapshot.I64(c, &d.lastCmdEnd)

	snapshot.I64(c, &d.stats.Reads)
	snapshot.I64(c, &d.stats.Writes)
	snapshot.I64(c, &d.stats.SectorsRead)
	snapshot.I64(c, &d.stats.SectorsWritten)
	snapshot.I64(c, &d.stats.Busy)
	snapshot.I64(c, &d.stats.SeekTime)
	snapshot.I64(c, &d.stats.RotateTime)
	snapshot.I64(c, &d.stats.TransferTime)
	snapshot.I64(c, &d.stats.Errors)

	snapshot.SortedMap(c, &d.media.sectors, func(c *snapshot.Codec, lba int64, h *slot) {
		var sec [geom.SectorSize]byte // encoding: the full sector, zeros and all
		copy(sec[:], d.media.bytes(*h))
		b := sec[:]
		c.View(&b)
		switch {
		case !c.Decoding() || c.Err() != nil:
		case len(b) != geom.SectorSize:
			c.Fail(fmt.Errorf("%w: sector %d has %d bytes", snapshot.ErrCorrupt, lba, len(b)))
		case lba >= total:
			c.Fail(fmt.Errorf("%w: sector %d outside drive", snapshot.ErrCorrupt, lba))
		default:
			*h = d.media.write(lba, b) // into the receiver's own store
		}
	})
}

// Snapshot encodes the drive's full persistent and mechanical state (see
// walk). The encoding is byte-deterministic, so two drives in the same state
// snapshot identically.
func (d *Disk) Snapshot() []byte { return snapshot.Encode(diskSnapKind, 2, d.walk) }

// Restore adopts a state produced by Snapshot on a drive of the same model
// and capacity. The drive must be idle (no command holding the arm).
func (d *Disk) Restore(data []byte) error {
	s := Disk{params: d.params}
	if err := snapshot.Decode(data, diskSnapKind, 2, s.walk); err != nil {
		return err
	}
	if d.arm.InUse() > 0 {
		return fmt.Errorf("%w: disk %s has a command in flight", snapshot.ErrNotQuiescent, d.params.Name)
	}
	d.params.SeekDeratePPM = s.params.SeekDeratePPM
	d.armCyl, d.armHead, d.lastCmdEnd = s.armCyl, s.armHead, s.lastCmdEnd
	d.stats, d.media = s.stats, s.media
	return nil
}
