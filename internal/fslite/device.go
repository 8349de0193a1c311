package fslite

import (
	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// FileDevice exposes a file as a block device, the way a database uses a
// pre-allocated log file: sector addresses map to byte offsets within the
// file, and every write goes through the file system's O_SYNC path,
// including its metadata updates.
//
// This is the "indirect" logging path of the paper's §6 remark ("applying
// track-based logging directly to database logging rather than indirectly
// through the file system"): compare a WAL on a FileDevice against one on a
// raw Trail device to measure what the file system detour costs.
type FileDevice struct {
	f  *File
	id blockdev.DevID
}

var _ blockdev.Device = (*FileDevice)(nil)

// FileDeviceSectors is a FileDevice's size in sectors, 1 MB.
const FileDeviceSectors = 2048

// NewFileDevice wraps f as a device of FileDeviceSectors sectors. The file
// need not be pre-extended (holes read as zeroes).
func NewFileDevice(f *File, id blockdev.DevID) *FileDevice {
	return &FileDevice{f: f, id: id}
}

// ID returns the device identity.
func (d *FileDevice) ID() blockdev.DevID { return d.id }

// Sectors returns the device capacity.
func (d *FileDevice) Sectors() int64 { return FileDeviceSectors }

// Read returns count sectors at lba from the file.
func (d *FileDevice) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	if err := blockdev.CheckRange(FileDeviceSectors, lba, count); err != nil {
		return nil, err
	}
	buf, err := d.f.ReadAt(p, lba*geom.SectorSize, int64(count)*geom.SectorSize)
	if err != nil {
		return nil, err
	}
	// Reads past the file's current size come back short; pad as zeroes
	// (holes).
	if len(buf) < count*geom.SectorSize {
		padded := make([]byte, count*geom.SectorSize)
		copy(padded, buf)
		buf = padded
	}
	return buf, nil
}

// Write stores count sectors at lba into the file (O_SYNC: data plus the
// file system's metadata updates are durable on return).
func (d *FileDevice) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	if err := blockdev.CheckRange(FileDeviceSectors, lba, count); err != nil {
		return err
	}
	return d.f.WriteAt(p, lba*geom.SectorSize, data[:count*geom.SectorSize])
}
