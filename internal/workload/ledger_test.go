package workload

import (
	"bytes"
	"errors"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// memDev holds one image per LBA, as the last write there left it, and
// fails the reads of the LBAs in fail.
type memDev struct {
	media map[int64][]byte
	fail  map[int64]error
}

func (d *memDev) ID() blockdev.DevID { return blockdev.DevID{Major: 1} }
func (d *memDev) Sectors() int64     { return 1 << 20 }

func (d *memDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if err := d.fail[lba]; err != nil {
		return nil, err
	}
	got := make([]byte, count*geom.SectorSize)
	copy(got, d.media[lba])
	return got, nil
}

func (d *memDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	d.media[lba] = data
	return nil
}

// image is a two-sector payload of byte b.
func image(b byte) []byte { return bytes.Repeat([]byte{b}, 2*geom.SectorSize) }

// TestLedgerReadBack holds each outcome to a target's acknowledged writes
// and what the device returns: a write another one issued after its
// acknowledgement supersedes is no longer acceptable, writes whose issue
// and acknowledgement overlap are both acceptable, and a failed read is
// reported with its error. Targets come back in ascending LBA order,
// whatever order they were acknowledged in.
func TestLedgerReadBack(t *testing.T) {
	type ack struct {
		data          []byte
		issued, acked sim.Time
	}
	errRead := errors.New("read failed")
	for _, tc := range []struct {
		name    string
		acks    []ack
		holds   []byte
		readErr error
		want    Outcome
	}{
		{"one write intact", []ack{{image(1), 0, 10}}, image(1), nil, Intact},
		{"one write lost", []ack{{image(1), 0, 10}}, image(2), nil, OtherBytes},
		{"never written", []ack{{image(1), 0, 10}}, nil, nil, OtherBytes},
		{"read fails", []ack{{image(1), 0, 10}}, image(1), errRead, ReadFailed},
		{"raced, first holds", []ack{{image(1), 0, 10}, {image(2), 5, 12}}, image(1), nil, Intact},
		{"raced, second holds", []ack{{image(1), 0, 10}, {image(2), 5, 12}}, image(2), nil, Intact},
		{"raced, acked in reverse", []ack{{image(2), 5, 8}, {image(1), 0, 10}}, image(1), nil, Intact},
		{"superseded holds", []ack{{image(1), 0, 10}, {image(2), 20, 30}}, image(1), nil, OtherBytes},
		{"superseding holds", []ack{{image(1), 0, 10}, {image(2), 20, 30}}, image(2), nil, Intact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			dev := &memDev{media: map[int64][]byte{}, fail: map[int64]error{}}
			var l Ledger
			// An intact neighbour recorded first, above the target.
			l.Record(64, image(9), 0, 1)
			dev.media[64] = image(9)
			for _, a := range tc.acks {
				l.Record(8, a.data, a.issued, a.acked)
			}
			dev.media[8], dev.fail[8] = tc.holds, tc.readErr
			var checks []Check
			env.Go("readback", func(p *sim.Proc) { checks = l.ReadBack(p, dev) })
			env.Run()
			if l.Targets() != 2 || len(checks) != 2 {
				t.Fatalf("%d targets, %d checks, want 2", l.Targets(), len(checks))
			}
			if got := checks[1]; got.LBA != 64 || got.Outcome != Intact || got.Err != nil {
				t.Errorf("neighbour: %+v, want lba 64 intact", got)
			}
			got := checks[0]
			if got.LBA != 8 || got.Outcome != tc.want || !errors.Is(got.Err, tc.readErr) || (tc.readErr == nil) != (got.Err == nil) {
				t.Errorf("target: %+v, want lba 8 outcome %d error %v", got, tc.want, tc.readErr)
			}
		})
	}
}
