package stddisk

import "tracklog/internal/snapshot"

const devSnapKind = "stddisk.Device"

// walk is the device's snapshot format: identity and fault-handling counters.
// The drive behind the device snapshots separately (disk.Disk); this layer
// owns only the retry bookkeeping.
func (d *Device) walk(c *snapshot.Codec) {
	c.U8(&d.id.Major)
	c.U8(&d.id.Minor)
	snapshot.I64(c, &d.size)
	snapshot.I64(c, &d.stats.Retries)
	snapshot.I64(c, &d.stats.Failures)
}

// Snapshot encodes the device's state (see walk), the fingerprint a world
// checkpoint carries; nothing decodes it.
func (d *Device) Snapshot() []byte { return snapshot.Encode(devSnapKind, 1, d.walk) }
