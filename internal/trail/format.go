package trail

import (
	"fmt"

	"tracklog/internal/disk"
)

// Format initializes d as a Trail log disk: it zeroes the media, writes the
// disk header (epoch 0, clean) with the drive's geometry to the primary
// location, and replicates it. Formatting is an offline operation and does
// not consume simulated time.
func Format(d *disk.Disk) error {
	d.MediaZero()
	h := &DiskHeader{Epoch: 0, CleanShutdown: true, Geom: d.Params().Geom}
	return writeHeaderAll(d, h)
}

// writeHeaderAll writes the header to the primary location and every
// replica.
func writeHeaderAll(d *disk.Disk, h *DiskHeader) error {
	sector, err := EncodeDiskHeader(h)
	if err != nil {
		return fmt.Errorf("format %s: %w", d.Params().Name, err)
	}
	for _, lba := range HeaderLBAs(d.Geom()) {
		d.MediaWrite(lba, sector)
	}
	return nil
}

// ReadHeader returns the log disk header, falling back to replicas if the
// primary copy is unreadable. It reads media directly (boot-time path, not
// on any measured latency path).
func ReadHeader(d *disk.Disk) (*DiskHeader, error) {
	var firstErr error
	for _, lba := range HeaderLBAs(d.Geom()) {
		h, err := DecodeDiskHeader(d.MediaRead(lba, 1))
		if err == nil {
			return h, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// Formatted reports whether d carries a valid Trail header at any replica.
func Formatted(d *disk.Disk) bool {
	_, err := ReadHeader(d)
	return err == nil
}
