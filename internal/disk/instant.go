package disk

import (
	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// InstantDev exposes a drive's media as a block device with zero service
// time. It exists for setup work that is not part of any measurement —
// populating a database before a benchmark, verifying media contents in
// tests — mirroring how a real experiment prepares its disks before the
// clock that matters starts.
type InstantDev struct {
	d  *Disk
	id blockdev.DevID
}

var _ blockdev.Device = (*InstantDev)(nil)

// NewInstantDev wraps d.
func NewInstantDev(d *Disk, id blockdev.DevID) *InstantDev {
	return &InstantDev{d: d, id: id}
}

// ID returns the device identity.
func (v *InstantDev) ID() blockdev.DevID { return v.id }

// Sectors returns the device capacity in sectors.
func (v *InstantDev) Sectors() int64 { return v.d.Geom().TotalSectors() }

// Read returns media contents with no simulated delay.
func (v *InstantDev) Read(_ *sim.Proc, lba int64, count int) ([]byte, error) {
	if err := blockdev.CheckRange(v.Sectors(), lba, count); err != nil {
		return nil, err
	}
	return v.d.MediaRead(lba, count), nil
}

// Write stores media contents with no simulated delay.
func (v *InstantDev) Write(_ *sim.Proc, lba int64, count int, data []byte) error {
	if err := blockdev.CheckWrite(v.Sectors(), lba, count, data); err != nil {
		return err
	}
	v.d.MediaWrite(lba, data[:count*geom.SectorSize])
	return nil
}
