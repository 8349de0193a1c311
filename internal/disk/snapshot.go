package disk

import (
	"fmt"
	"sort"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

const diskSnapKind = "disk.Disk"

// Snapshot encodes the drive's full persistent and mechanical state: identity
// (model name, capacity), arm position, last-command time, activity counters,
// and every written sector in LBA order. The encoding is byte-deterministic,
// so two drives in the same state snapshot identically.
func (d *Disk) Snapshot() []byte {
	w := snapshot.NewWriter(diskSnapKind, 2)
	w.String(d.params.Name)
	w.I64(d.params.Geom.TotalSectors())
	// SeekDeratePPM is the one Params knob that can change mid-run
	// (SetSeekDeratePPM models aging hardware); a restored drive must seek
	// at the captured drive's speed or replayed timings diverge.
	w.I64(d.params.SeekDeratePPM)
	w.Int(d.armCyl)
	w.Int(d.armHead)
	w.I64(int64(d.lastCmdEnd))

	w.I64(d.stats.Reads)
	w.I64(d.stats.Writes)
	w.I64(d.stats.SectorsRead)
	w.I64(d.stats.SectorsWritten)
	w.I64(int64(d.stats.Busy))
	w.I64(int64(d.stats.SeekTime))
	w.I64(int64(d.stats.RotateTime))
	w.I64(int64(d.stats.TransferTime))
	w.I64(d.stats.Errors)

	lbas := make([]int64, 0, len(d.media.sectors))
	for lba := range d.media.sectors {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
	w.U32(uint32(len(lbas)))
	for _, lba := range lbas {
		w.I64(lba)
		w.Bytes32(d.media.sectors[lba])
	}
	return w.Bytes()
}

// Restore adopts a state produced by Snapshot on a drive of the same model
// and capacity. Every sector is copied into a store of the drive's own, so a
// restored drive shares nothing with the snapshot's source or its bytes — the
// isolation the crash explorer's branches rely on. The drive must be idle (no
// command holding the arm).
func (d *Disk) Restore(data []byte) error {
	r, err := snapshot.NewReader(data, diskSnapKind, 2)
	if err != nil {
		return err
	}
	name := r.StringVal()
	total := r.I64()
	deratePPM := r.I64()
	armCyl := r.Int()
	armHead := r.Int()
	lastCmdEnd := r.I64()

	var st Stats
	st.Reads = r.I64()
	st.Writes = r.I64()
	st.SectorsRead = r.I64()
	st.SectorsWritten = r.I64()
	st.Busy = time.Duration(r.I64())
	st.SeekTime = time.Duration(r.I64())
	st.RotateTime = time.Duration(r.I64())
	st.TransferTime = time.Duration(r.I64())
	st.Errors = r.I64()

	n := r.Len()
	media := newSectorStore(n)
	prev := int64(-1)
	for i := 0; i < n; i++ {
		lba := r.I64()
		sec := r.View32()
		if r.Err() != nil {
			break
		}
		if len(sec) != geom.SectorSize {
			return fmt.Errorf("%w: sector %d has %d bytes", snapshot.ErrCorrupt, lba, len(sec))
		}
		if lba < 0 || lba >= total {
			return fmt.Errorf("%w: sector %d outside drive", snapshot.ErrCorrupt, lba)
		}
		// Snapshot writes sectors in LBA order; anything else is not one of
		// ours, and adopting it would let a repeated LBA silently win.
		if lba <= prev {
			return fmt.Errorf("%w: sector %d after sector %d", snapshot.ErrCorrupt, lba, prev)
		}
		prev = lba
		media.write(lba, sec)
	}
	if err := r.Close(); err != nil {
		return err
	}
	if name != d.params.Name || total != d.params.Geom.TotalSectors() {
		return fmt.Errorf("%w: snapshot of drive %q (%d sectors), restoring into %q (%d sectors)",
			snapshot.ErrMismatch, name, total, d.params.Name, d.params.Geom.TotalSectors())
	}
	if d.arm.InUse() > 0 {
		return fmt.Errorf("%w: disk %s has a command in flight", snapshot.ErrNotQuiescent, d.params.Name)
	}
	d.params.SeekDeratePPM = deratePPM
	d.armCyl = armCyl
	d.armHead = armHead
	d.lastCmdEnd = sim.Time(lastCmdEnd)
	d.stats = st
	d.media = media
	return nil
}
