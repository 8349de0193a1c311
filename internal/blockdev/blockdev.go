// Package blockdev defines the interface between storage clients (file
// system, database, workload generators) and disk subsystem drivers (the
// Trail driver and the standard baseline driver).
//
// It mirrors the boundary in the paper's Figure 2: "the interface exposed by
// the Trail driver is exactly the same as those exposed by standard disk
// device drivers" — clients issue synchronous block reads and writes and
// cannot tell which driver serves them, except by latency.
package blockdev

import (
	"errors"
	"fmt"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// Request errors: the caller asked for something no device can do.
var (
	// ErrOutOfRange reports an access outside the device.
	ErrOutOfRange = errors.New("blockdev: access outside device")
	// ErrShortBuffer reports a write whose data holds fewer bytes than its
	// sector count covers.
	ErrShortBuffer = errors.New("blockdev: write data shorter than its sectors")
)

// Sentinel error taxonomy for device failures. Every layer wraps these with
// context (device, LBA, attempt count) but callers MUST classify with
// errors.Is against the sentinels below — never by string matching — so that
// wrapping depth and message wording stay free to change.
var (
	// ErrMediaError reports a latent sector error: the addressed sector is
	// unreadable (or unwritable) while the rest of the device keeps working.
	// Reads of other sectors succeed; a successful rewrite of the sector
	// (after reconstructing its contents elsewhere) typically repairs it.
	// Persistent for an LBA until repaired.
	ErrMediaError = errors.New("blockdev: unrecoverable media error")
	// ErrTimeout reports a transient command failure: the command was lost
	// (no media effect for writes, no data for reads) but the device is
	// healthy. Retrying the command is expected to succeed; drivers apply
	// bounded retry-with-reposition on it.
	ErrTimeout = errors.New("blockdev: command timeout")
	// ErrDeviceFailed reports whole-device loss: every subsequent command on
	// the device fails. Not retryable; redundancy layers (RAID) must
	// reconstruct from surviving devices.
	ErrDeviceFailed = errors.New("blockdev: device failed")
	// ErrOverload reports admission-control shedding: the driver's queue was
	// full (or above the request's class threshold) and the request was
	// rejected without touching the disk. The device is healthy; the client
	// may back off and resubmit. Never returned unless QoS is enabled.
	ErrOverload = errors.New("blockdev: overloaded, request shed")
	// ErrDeadlineExceeded reports that a request's virtual-time deadline
	// passed before the command could complete. The request is abandoned
	// without (further) occupying the disk; no retry fires past its
	// deadline.
	ErrDeadlineExceeded = errors.New("blockdev: deadline exceeded")
)

// IsTransient reports whether err is worth retrying on the same device
// (classified via errors.Is, per the taxonomy contract). Shed and expired
// requests are not transient: retrying immediately would make the overload
// worse, and a passed deadline cannot un-pass.
func IsTransient(err error) bool { return errors.Is(err, ErrTimeout) }

// IsShed reports whether err is an admission-control rejection.
func IsShed(err error) bool { return errors.Is(err, ErrOverload) }

// IsExpired reports whether err is a missed virtual-time deadline.
func IsExpired(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }

// Class is a request's service class for admission control and degradation
// ordering. Under overload the stack sheds Background first, then Normal;
// Interactive traffic is shed only when a queue is completely full.
type Class uint8

const (
	// ClassNormal is the default (zero value): foreground traffic without
	// special treatment.
	ClassNormal Class = iota
	// ClassBackground marks deferrable internal traffic — write-back,
	// shard rebuild — shed first under pressure.
	ClassBackground
	// ClassInteractive marks latency-sensitive traffic, shed last.
	ClassInteractive
)

func (c Class) String() string {
	switch c {
	case ClassBackground:
		return "background"
	case ClassNormal:
		return "normal"
	case ClassInteractive:
		return "interactive"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ShedOrder ranks classes for eviction: lower values are shed first.
func (c Class) ShedOrder() int {
	switch c {
	case ClassBackground:
		return 0
	case ClassInteractive:
		return 2
	default:
		return 1
	}
}

// Options carries per-request attributes through the stack: QoS (deadline
// and class) and, for a read, the buffer to fill. The zero value means "no
// deadline, normal class, a new buffer" and is always valid.
type Options struct {
	// Deadline is an absolute virtual time after which the request must not
	// occupy the disk: drivers complete it with ErrDeadlineExceeded instead
	// of issuing or retrying it. Zero means no deadline.
	Deadline sim.Time
	// Class selects the request's shed priority.
	Class Class
	// Into, when it holds a read's count sectors, is the buffer the read
	// fills and returns (as Into[:count*SectorSize]) instead of allocating
	// one. A device that takes no Options returns its own buffer, so a
	// caller uses the returned slice either way.
	Into []byte
}

// Buffer returns Into[:count*SectorSize] when Into holds count sectors, and
// nil otherwise.
func (o Options) Buffer(count int) []byte {
	if n := count * geom.SectorSize; len(o.Into) >= n {
		return o.Into[:n]
	}
	return nil
}

// OptionedDevice is implemented by devices that accept per-request options.
// Plain Device callers keep working unchanged; QoS-aware clients use
// ReadOpts/WriteOpts (directly or via the package-level helpers) to
// propagate deadlines and classes, and a reader that owns a buffer passes it
// as Options.Into.
type OptionedDevice interface {
	Device
	ReadOpts(p *sim.Proc, lba int64, count int, opts Options) ([]byte, error)
	WriteOpts(p *sim.Proc, lba int64, count int, data []byte, opts Options) error
}

// ReadOpts reads through dev with opts when it supports them, falling back
// to the plain path otherwise.
func ReadOpts(p *sim.Proc, dev Device, lba int64, count int, opts Options) ([]byte, error) {
	if od, ok := dev.(OptionedDevice); ok {
		return od.ReadOpts(p, lba, count, opts)
	}
	return dev.Read(p, lba, count)
}

// WriteOpts writes through dev with opts when it supports them, falling
// back to the plain path otherwise.
func WriteOpts(p *sim.Proc, dev Device, lba int64, count int, data []byte, opts Options) error {
	if od, ok := dev.(OptionedDevice); ok {
		return od.WriteOpts(p, lba, count, data, opts)
	}
	return dev.Write(p, lba, count, data)
}

// DevID names a data disk the way the paper's record headers do, with the
// Unix major/minor device pair.
type DevID struct {
	Major, Minor uint8
}

func (id DevID) String() string { return fmt.Sprintf("dev(%d,%d)", id.Major, id.Minor) }

// Device is a synchronous block device. Write returns only when the write is
// durable (for Trail, that means logged; for the baseline, in place on the
// platter). Both calls block the invoking simulated process for the full
// service time.
type Device interface {
	// ID returns the device identity.
	ID() DevID
	// Sectors returns the device capacity in sectors.
	Sectors() int64
	// Read returns count sectors starting at lba.
	Read(p *sim.Proc, lba int64, count int) ([]byte, error)
	// Write makes count sectors at lba durable. It does not keep data: the
	// caller may reuse the buffer the instant Write returns.
	Write(p *sim.Proc, lba int64, count int, data []byte) error
}

// CheckRange validates an access against a device size.
func CheckRange(sectors, lba int64, count int) error {
	if lba < 0 || count <= 0 || lba > sectors-int64(count) {
		return fmt.Errorf("%w: [%d,+%d) of %d", ErrOutOfRange, lba, count, sectors)
	}
	return nil
}

// CheckWrite validates a write: its range, as CheckRange does, and data
// holding all count sectors.
func CheckWrite(sectors, lba int64, count int, data []byte) error {
	if err := CheckRange(sectors, lba, count); err != nil {
		return err
	}
	if len(data) < count*geom.SectorSize {
		return fmt.Errorf("%w: %d bytes for %d sectors", ErrShortBuffer, len(data), count)
	}
	return nil
}
