package workload

import (
	"bytes"
	"cmp"
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

type ackedWrite struct {
	data          []byte
	issued, acked sim.Time
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

// Record keeps one acknowledged write; it is a Load.OnAck.
func (l *Ledger) Record(lba int64, data []byte, issued, acked sim.Time) {
	if l.acks == nil {
		l.acks = make(map[int64][]ackedWrite)
	}
	l.acks[lba] = append(l.acks[lba], ackedWrite{data, issued, acked})
}

// Targets returns the number of acknowledged targets.
func (l *Ledger) Targets() int { return len(l.acks) }

// ReadBack reads every acknowledged target from dev, in ascending LBA order,
// over the extent of its last-issued write, and returns one Check each. A
// target is intact when it holds the bytes of one of its writes that was not
// yet acknowledged when the last-issued one was issued: a write issued after
// another's acknowledgement supersedes it, and each of the writes that raced
// is allowed.
func (l *Ledger) ReadBack(p *sim.Proc, dev blockdev.Device) []Check {
	lbas := make([]int64, 0, len(l.acks))
	for lba := range l.acks {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	checks := make([]Check, 0, len(lbas))
	for _, lba := range lbas {
		acks := l.acks[lba]
		last := slices.MaxFunc(acks, func(a, b ackedWrite) int { return cmp.Compare(a.issued, b.issued) })
		got, err := dev.Read(p, lba, len(last.data)/geom.SectorSize)
		c := Check{LBA: lba, Outcome: ReadFailed, Err: err}
		if err == nil {
			c.Outcome = OtherBytes
			if slices.ContainsFunc(acks, func(a ackedWrite) bool { return a.acked >= last.issued && bytes.Equal(got, a.data) }) {
				c.Outcome = Intact
			}
		}
		checks = append(checks, c)
	}
	return checks
}
