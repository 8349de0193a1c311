package workload

import (
	"bytes"
	"slices"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Ledger is the one audit of acknowledged-write survival: set its Record as
// a load's OnAck, and ReadBack reads every acknowledged target back. A
// target is an LBA; the acknowledged writes to one cover the same extent, and
// no other target's. The zero value is an empty ledger.
type Ledger struct {
	acks map[int64][]ackedWrite
}

// ackedWrite is one acknowledged write a target may legally hold.
type ackedWrite struct {
	data  []byte
	acked sim.Time
}

// Outcome is what the read-back of one acknowledged target found: its
// acknowledged bytes (Intact), any other bytes (OtherBytes: an acknowledged
// write is lost), or an error (ReadFailed, the error in Check.Err).
type Outcome int

const (
	Intact Outcome = iota
	OtherBytes
	ReadFailed
)

// Check is the read-back of one acknowledged target.
type Check struct {
	LBA     int64
	Outcome Outcome
	Err     error
}

// Record keeps one acknowledged write; it is a Load.OnAck, so writes arrive
// in acknowledgement order. A write issued after another's acknowledgement
// supersedes it: Record drops every write to the target acknowledged before
// this one was issued, and keeps the writes that raced. A target thus holds
// no more writes than were in flight to it at once.
func (l *Ledger) Record(lba int64, data []byte, issued, acked sim.Time) {
	if l.acks == nil {
		l.acks = make(map[int64][]ackedWrite)
	}
	kept := slices.DeleteFunc(l.acks[lba], func(a ackedWrite) bool { return a.acked < issued })
	l.acks[lba] = append(kept, ackedWrite{data, acked})
}

// Targets returns the number of acknowledged targets.
func (l *Ledger) Targets() int { return len(l.acks) }

// ReadBack reads every acknowledged target from dev, in ascending LBA order,
// over its extent, and returns one Check each. A target is intact when it
// holds the bytes of one of the writes Record kept for it.
func (l *Ledger) ReadBack(p *sim.Proc, dev blockdev.Device) []Check {
	lbas := make([]int64, 0, len(l.acks))
	for lba := range l.acks {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	checks := make([]Check, 0, len(lbas))
	for _, lba := range lbas {
		acks := l.acks[lba]
		got, err := dev.Read(p, lba, len(acks[0].data)/geom.SectorSize)
		c := Check{LBA: lba, Outcome: ReadFailed, Err: err}
		if err == nil {
			c.Outcome = OtherBytes
			if slices.ContainsFunc(acks, func(a ackedWrite) bool { return bytes.Equal(got, a.data) }) {
				c.Outcome = Intact
			}
		}
		checks = append(checks, c)
	}
	return checks
}
