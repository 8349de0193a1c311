// Package raid implements a block-interleaved distributed-parity disk array
// (RAID-5) over block devices.
//
// The paper's closing section names "using track-based logging to solve the
// small write problem in RAID-5 disk arrays" as ongoing work: a small RAID-5
// write costs four disk I/Os (read old data, read old parity, write data,
// write parity), two of them synchronous writes. Building the array over
// Trail data devices turns both writes into fast log appends, which is the
// effect the RAID5SmallWrites experiment measures.
//
// Besides parity, the array serializes each stripe's update, reads a failed
// member or a sector whose last write failed back from parity, and drops a
// member that answers blockdev.ErrDeviceFailed.
package raid

import (
	"errors"
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// Errors.
var (
	// ErrDegradedTwice means more than one device has failed; RAID-5
	// cannot reconstruct.
	ErrDegradedTwice = errors.New("raid: more than one failed device")
	// ErrBadArray reports an unusable configuration.
	ErrBadArray = errors.New("raid: bad array configuration")
)

// Array is a RAID-5 array. The logical address space excludes parity: with
// N devices of C sectors each, capacity is (N-1)*C sectors.
//
// Layout (left-asymmetric): logical chunks are striped across the devices
// in order, skipping the parity device of each stripe; the parity chunk
// rotates right-to-left with the stripe number.
type Array struct {
	devs   []blockdev.Device
	chunk  int // chunk size in sectors
	failed int // index of the failed device, or -1
	// bad tracks per-device sectors whose last write failed with a media
	// error: the platter holds stale data there, so reads of those sectors
	// must reconstruct from parity until a later write of the sector succeeds.
	bad   []map[int64]bool
	stats Stats
	// Per-stripe serialization. A small write's parity read-modify-write is
	// only correct if no other update touches the stripe between the reads
	// and the writes, and a reconstructing read is only correct against a
	// parity-consistent stripe. locked holds the stripe indices currently
	// owned by an in-flight operation; lockC wakes the waiters.
	locked map[int64]bool
	lockC  *sim.Cond
}

// Stats counts array activity.
type Stats struct {
	Reads, Writes                  int64
	SmallWrites, FullStripes       int64
	DeviceReads, DeviceWrites      int64
	DegradedReads, Reconstructions int64
	// Fault handling: MediaErrorReads/MediaErrorWrites count device
	// commands that hit unreadable/unwritable sectors; DeviceFailures
	// counts devices dropped from the array (manually or on
	// blockdev.ErrDeviceFailed).
	MediaErrorReads  int64
	MediaErrorWrites int64
	DeviceFailures   int64
}

// Counters exports the array's fault/repair telemetry as a counter set.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"raid.degraded_reads":     s.DegradedReads,
		"raid.reconstructions":    s.Reconstructions,
		"raid.media_error_reads":  s.MediaErrorReads,
		"raid.media_error_writes": s.MediaErrorWrites,
		"raid.device_failures":    s.DeviceFailures,
	}
}

// New builds an array over devs (>= 3, equal sizes) with the given chunk
// size in sectors.
func New(devs []blockdev.Device, chunkSectors int) (*Array, error) {
	if len(devs) < 3 {
		return nil, fmt.Errorf("%w: %d devices (minimum 3)", ErrBadArray, len(devs))
	}
	if chunkSectors <= 0 {
		return nil, fmt.Errorf("%w: chunk %d", ErrBadArray, chunkSectors)
	}
	for _, d := range devs[1:] {
		if d.Sectors() != devs[0].Sectors() {
			return nil, fmt.Errorf("%w: mismatched device sizes", ErrBadArray)
		}
	}
	return &Array{
		devs:   devs,
		chunk:  chunkSectors,
		failed: -1,
		bad:    make([]map[int64]bool, len(devs)),
	}, nil
}

// Sectors returns the logical capacity.
func (a *Array) Sectors() int64 {
	return a.devs[0].Sectors() / int64(a.chunk) * int64(a.chunk) * int64(len(a.devs)-1)
}

// Stats returns a copy of the counters.
func (a *Array) Stats() Stats { return a.stats }

// Fail marks one device as dead; reads reconstruct from the survivors. The
// array also calls this itself when a device command returns
// blockdev.ErrDeviceFailed.
func (a *Array) Fail(dev int) error {
	if a.failed >= 0 && a.failed != dev {
		return fmt.Errorf("%w: device %d failed while %d already down", ErrDegradedTwice, dev, a.failed)
	}
	if a.failed != dev {
		a.stats.DeviceFailures++
	}
	a.failed = dev
	return nil
}

// Failed returns the index of the failed device, or -1.
func (a *Array) Failed() int { return a.failed }

// BadSectors returns the number of known-unwritable sectors across all
// devices (their contents live only in parity until a rewrite succeeds).
func (a *Array) BadSectors() int {
	n := 0
	for _, m := range a.bad {
		n += len(m)
	}
	return n
}

func (a *Array) markBad(dev int, lba int64) {
	if a.bad[dev] == nil {
		a.bad[dev] = make(map[int64]bool)
	}
	a.bad[dev][lba] = true
}

func (a *Array) clearBad(dev int, lba int64, count int) {
	m := a.bad[dev]
	if len(m) == 0 {
		return
	}
	for i := 0; i < count; i++ {
		delete(m, lba+int64(i))
	}
}

func (a *Array) anyBad(dev int, lba int64, count int) bool {
	m := a.bad[dev]
	if len(m) == 0 {
		return false
	}
	for i := 0; i < count; i++ {
		if m[lba+int64(i)] {
			return true
		}
	}
	return false
}

// chunkLoc maps a logical chunk index to (device, chunk-on-device, stripe).
func (a *Array) chunkLoc(logical int64) (dev int, devChunk int64, stripe int64) {
	n := int64(len(a.devs))
	stripe = logical / (n - 1)
	pos := logical % (n - 1) // position among the stripe's data chunks
	parity := int(stripe % n)
	dev = int(pos)
	if dev >= parity {
		dev++
	}
	return dev, stripe, stripe
}

// parityDev returns the parity device of a stripe.
func (a *Array) parityDev(stripe int64) int { return int(stripe % int64(len(a.devs))) }

// lockStripe blocks p until it owns stripe. Operations hold at most one
// stripe lock at a time, so there is no lock ordering to get wrong.
func (a *Array) lockStripe(p *sim.Proc, stripe int64) {
	if a.lockC == nil {
		a.locked = make(map[int64]bool)
		a.lockC = sim.NewCond(p.Env())
	}
	for a.locked[stripe] {
		a.lockC.Wait(p)
	}
	a.locked[stripe] = true
}

func (a *Array) unlockStripe(stripe int64) {
	delete(a.locked, stripe)
	a.lockC.Broadcast()
}

// devRead reads a chunk-relative sector range from one device,
// reconstructing from the other devices when the device has failed, the
// range covers a known-unwritable sector (stale on the platter), or the read
// itself hits a media error. A device answering with
// blockdev.ErrDeviceFailed is dropped from the array on the spot.
func (a *Array) devRead(p *sim.Proc, dev int, devChunk int64, off, count int, opts blockdev.Options) ([]byte, error) {
	lba := devChunk*int64(a.chunk) + int64(off)
	if dev == a.failed || a.anyBad(dev, lba, count) {
		a.stats.DegradedReads++
		return a.reconstruct(p, dev, lba, count, opts)
	}
	a.stats.DeviceReads++
	buf, err := blockdev.ReadOpts(p, a.devs[dev], lba, count, opts)
	switch {
	case err == nil:
		return buf, nil
	case errors.Is(err, blockdev.ErrDeviceFailed):
		if ferr := a.Fail(dev); ferr != nil {
			return nil, ferr
		}
		a.stats.DegradedReads++
	case errors.Is(err, blockdev.ErrMediaError):
		a.stats.MediaErrorReads++
	default:
		return nil, err
	}
	return a.reconstruct(p, dev, lba, count, opts)
}

// reconstruct rebuilds count sectors of device dev starting at device LBA
// lba by XOR-ing the same rows of every other device (all chunks of a stripe
// occupy the same device rows, so the XOR across all devices of any row is
// zero). A second unreadable copy in the range is a genuine double fault and
// surfaces as an error.
func (a *Array) reconstruct(p *sim.Proc, dev int, lba int64, count int, opts blockdev.Options) ([]byte, error) {
	a.stats.Reconstructions++
	out := make([]byte, count*geom.SectorSize)
	for i, d := range a.devs {
		if i == dev {
			continue
		}
		if i == a.failed || a.anyBad(i, lba, count) {
			return nil, fmt.Errorf("%w: reconstructing device %d lba %d needs device %d", ErrDegradedTwice, dev, lba, i)
		}
		a.stats.DeviceReads++
		buf, err := blockdev.ReadOpts(p, d, lba, count, opts)
		if err != nil {
			if errors.Is(err, blockdev.ErrDeviceFailed) {
				a.Fail(i) //nolint:errcheck // double fault surfaces below either way
			}
			return nil, fmt.Errorf("raid: reconstructing device %d lba %d: %w", dev, lba, err)
		}
		xorInto(out, buf)
	}
	return out, nil
}

// devWrite writes a chunk-relative sector range to one device. A failed
// device's writes are dropped silently — parity carries the information. A
// media error triggers a per-sector probe: writable sectors are persisted,
// unwritable ones are marked bad so reads reconstruct them from parity.
func (a *Array) devWrite(p *sim.Proc, dev int, devChunk int64, off int, data []byte, opts blockdev.Options) error {
	if dev == a.failed {
		return nil
	}
	a.stats.DeviceWrites++
	lba := devChunk*int64(a.chunk) + int64(off)
	n := len(data) / geom.SectorSize
	err := blockdev.WriteOpts(p, a.devs[dev], lba, n, data, opts)
	switch {
	case err == nil:
		a.clearBad(dev, lba, n)
		return nil
	case errors.Is(err, blockdev.ErrDeviceFailed):
		if ferr := a.Fail(dev); ferr != nil {
			return ferr
		}
		return nil // parity carries the chunk from here on
	case errors.Is(err, blockdev.ErrMediaError):
	default:
		return err
	}
	a.stats.MediaErrorWrites++
	for i := 0; i < n; i++ {
		slba := lba + int64(i)
		serr := blockdev.WriteOpts(p, a.devs[dev], slba, 1, data[i*geom.SectorSize:(i+1)*geom.SectorSize], opts)
		switch {
		case serr == nil:
			a.clearBad(dev, slba, 1)
		case errors.Is(serr, blockdev.ErrDeviceFailed):
			if ferr := a.Fail(dev); ferr != nil {
				return ferr
			}
			return nil
		case errors.Is(serr, blockdev.ErrMediaError):
			a.markBad(dev, slba)
		default:
			return serr
		}
	}
	return nil
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Read returns count logical sectors at lba. Member reads go out at
// Interactive class.
func (a *Array) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if err := blockdev.CheckRange(a.Sectors(), lba, count); err != nil {
		return nil, err
	}
	opts := blockdev.Options{Class: blockdev.ClassInteractive}
	a.stats.Reads++
	out := make([]byte, 0, count*geom.SectorSize)
	for count > 0 {
		logical := lba / int64(a.chunk)
		off := int(lba % int64(a.chunk))
		n := a.chunk - off
		if n > count {
			n = count
		}
		dev, devChunk, stripe := a.chunkLoc(logical)
		a.lockStripe(p, stripe)
		buf, err := a.devRead(p, dev, devChunk, off, n, opts)
		a.unlockStripe(stripe)
		if err != nil {
			return nil, err
		}
		out = append(out, buf...)
		lba += int64(n)
		count -= n
	}
	return out, nil
}

// Write stores count logical sectors at lba, maintaining parity. Writes
// covering a full stripe compute parity directly (no reads); partial
// ("small") writes pay the classic read-modify-write: read old data and old
// parity, then write new data and new parity.
func (a *Array) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	if err := blockdev.CheckWrite(a.Sectors(), lba, count, data); err != nil {
		return err
	}
	var opts blockdev.Options
	a.stats.Writes++
	ackLBA, ackCount := lba, count
	n := int64(len(a.devs))
	stripeData := int64(a.chunk) * (n - 1) // logical sectors per stripe
	for count > 0 {
		stripe := lba / stripeData
		inStripe := lba % stripeData
		this := int(stripeData - inStripe)
		if this > count {
			this = count
		}
		var err error
		a.lockStripe(p, stripe)
		if inStripe == 0 && int64(this) == stripeData {
			err = a.fullStripeWrite(p, stripe, data, opts)
		} else {
			// Small write(s): read-modify-write per touched chunk.
			err = a.smallWrite(p, lba, this, data[:this*geom.SectorSize], opts)
		}
		a.unlockStripe(stripe)
		if err != nil {
			return err
		}
		data = data[this*geom.SectorSize:]
		lba += int64(this)
		count -= this
	}
	// Data and parity are on the members and the write is about to be
	// acknowledged to the client: a crash-exploration interesting event.
	p.Env().EmitProbe(p, sim.ProbeAck, "raid", ackLBA, ackCount)
	return nil
}

// fullStripeWrite writes one complete stripe, computing parity from the new
// data alone (no reads). Caller holds the stripe lock.
func (a *Array) fullStripeWrite(p *sim.Proc, stripe int64, data []byte, opts blockdev.Options) error {
	n := int64(len(a.devs))
	chunkBytes := int64(a.chunk) * geom.SectorSize
	parity := make([]byte, chunkBytes)
	pDev := a.parityDev(stripe)
	for i := int64(0); i < n-1; i++ {
		part := data[i*chunkBytes : (i+1)*chunkBytes]
		xorInto(parity, part)
		dev, devChunk, _ := a.chunkLoc(stripe*(n-1) + i)
		if err := a.devWrite(p, dev, devChunk, 0, part, opts); err != nil {
			return err
		}
	}
	if err := a.devWrite(p, pDev, stripe, 0, parity, opts); err != nil {
		return err
	}
	a.stats.FullStripes++
	return nil
}

// smallWrite updates up to a stripe's worth of sectors with read-modify-
// write parity maintenance. Caller holds the stripe lock.
func (a *Array) smallWrite(p *sim.Proc, lba int64, count int, data []byte, opts blockdev.Options) error {
	for count > 0 {
		logical := lba / int64(a.chunk)
		off := int(lba % int64(a.chunk))
		nSect := a.chunk - off
		if nSect > count {
			nSect = count
		}
		dev, devChunk, stripe := a.chunkLoc(logical)
		pDev := a.parityDev(stripe)
		newData := data[:nSect*geom.SectorSize]

		// Read old data and old parity (2 reads).
		oldData, err := a.devRead(p, dev, devChunk, off, nSect, opts)
		if err != nil {
			return err
		}
		oldParity, err := a.devRead(p, pDev, stripe, off, nSect, opts)
		if err != nil {
			return err
		}
		// New parity = old parity XOR old data XOR new data.
		parity := make([]byte, len(oldParity))
		copy(parity, oldParity)
		xorInto(parity, oldData)
		xorInto(parity, newData)

		// Write new data and new parity (2 writes).
		if err := a.devWrite(p, dev, devChunk, off, newData, opts); err != nil {
			return err
		}
		if err := a.devWrite(p, pDev, stripe, off, parity, opts); err != nil {
			return err
		}
		a.stats.SmallWrites++

		data = data[nSect*geom.SectorSize:]
		lba += int64(nSect)
		count -= nSect
	}
	return nil
}
