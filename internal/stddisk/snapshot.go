package stddisk

import (
	"fmt"

	"tracklog/internal/snapshot"
)

const devSnapKind = "stddisk.Device"

// walk is the device's snapshot format: identity and fault-handling counters.
// The drive behind the device snapshots separately (disk.Disk); this layer
// owns only the retry bookkeeping.
func (d *Device) walk(c *snapshot.Codec) {
	id, size := d.id, d.size
	c.U8(&id.Major)
	c.U8(&id.Minor)
	snapshot.I64(c, &size)
	if id != d.id || size != d.size {
		c.Fail(fmt.Errorf("%w: snapshot of %v %d sectors, restoring into %v %d sectors",
			snapshot.ErrMismatch, id, size, d.id, d.size))
	}
	snapshot.I64(c, &d.stats.Retries)
	snapshot.I64(c, &d.stats.Failures)
}

// Snapshot encodes the device's state (see walk).
func (d *Device) Snapshot() []byte { return snapshot.Encode(devSnapKind, 1, d.walk) }

// Restore adopts a state produced by Snapshot on a device with the same
// identity and capacity. The device must be quiescent: no request may be in
// the scheduler queue.
func (d *Device) Restore(data []byte) error {
	s := *d
	if err := snapshot.Decode(data, devSnapKind, 1, s.walk); err != nil {
		return err
	}
	if n := d.queue.Depth(); n > 0 {
		return fmt.Errorf("%w: stddisk %v has %d queued requests", snapshot.ErrNotQuiescent, d.id, n)
	}
	*d = s
	return nil
}
