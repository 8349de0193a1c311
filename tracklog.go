// Package tracklog is a library reproduction of "Track-Based Disk Logging"
// (Chiueh & Huang, DSN 2002): the Trail low-write-latency disk subsystem,
// the rotational disk models it runs on, the standard-subsystem baseline it
// is compared against, and the workloads (raw synchronous writes, TPC-C
// transaction processing) of the paper's evaluation.
//
// Everything runs on a deterministic virtual clock, so experiments are
// reproducible bit-for-bit and "latency" always means simulated disk time,
// reported in real units.
//
// The quickest way in is a System, which assembles the paper's hardware:
//
//	sys, err := tracklog.NewSystem(tracklog.SystemConfig{DataDisks: 1})
//	...
//	sys.Go("writer", func(p *tracklog.Proc) {
//		dev := sys.Trail.Dev(0)
//		dev.Write(p, 0, 8, make([]byte, 8*512)) // durable in ~1.5 ms
//	})
//	sys.Run()
//
// Lower-level packages are re-exported through type aliases below; the
// experiment harness reproducing each of the paper's tables and figures
// lives in internal/experiments and is driven by the cmd/ tools and the
// repository-level benchmarks.
package tracklog

import (
	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// Core simulation types.
type (
	// Env is a discrete-event simulation environment (virtual clock).
	Env = sim.Env
	// Proc is a simulated process; all blocking I/O takes one.
	Proc = sim.Proc
	// Time is an instant of virtual time.
	Time = sim.Time
	// Rand is the deterministic random source used everywhere.
	Rand = sim.Rand
)

// Disk and driver types.
type (
	// Disk is a rotational drive model.
	Disk = disk.Disk
	// DiskParams describes a drive's geometry and mechanics.
	DiskParams = disk.Params
	// Geometry is a drive's physical layout.
	Geometry = geom.Geometry
	// Driver is the Trail driver (the paper's contribution).
	Driver = trail.Driver
	// TrailConfig tunes the Trail driver.
	TrailConfig = trail.Config
	// Device is the synchronous block device interface both the Trail
	// driver and the baseline expose.
	Device = blockdev.Device
	// DevID names a data disk (major/minor).
	DevID = blockdev.DevID
	// RecoverOptions tunes crash recovery.
	RecoverOptions = trail.RecoverOptions
	// RecoverReport describes a completed recovery.
	RecoverReport = trail.RecoverReport
	// FaultConfig describes a deterministic media-fault scenario for one
	// drive (latent sector errors, transient timeouts, growing defects,
	// whole-device failure).
	FaultConfig = fault.Config
	// FaultPlan is a sampled fault scenario attached to a drive.
	FaultPlan = fault.Plan
)

// NewEnv returns a fresh simulation environment.
func NewEnv() *Env { return sim.NewEnv() }

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return sim.NewRand(seed) }

// ST41601N returns the paper's log disk profile (Seagate 5400-RPM SCSI,
// 1.37 GB, 35,717 tracks).
func ST41601N() DiskParams { return disk.ST41601N() }

// WDCaviar returns the paper's data disk profile (WD 5400-RPM IDE, ~10 GB).
func WDCaviar() DiskParams { return disk.WDCaviar() }

// NewDisk creates a drive on env.
func NewDisk(env *Env, params DiskParams) *Disk { return disk.New(env, params) }

// DefaultTrailConfig returns the paper's Trail configuration.
func DefaultTrailConfig() TrailConfig { return trail.Default() }

// NewStandardDevice exposes a drive as the paper's baseline: synchronous
// in-place I/O behind a LOOK elevator.
func NewStandardDevice(env *Env, d *Disk, id DevID) Device {
	return stddisk.New(env, d, id, sched.LOOK)
}

// SystemConfig describes a NewSystem: disk counts and profiles, the Trail
// configuration (or a baseline scheduler policy), an optional fault scenario
// and an optional instruments bundle. The zero value is the paper's
// standard system.
type SystemConfig = rig.Config

// System is an assembled storage system on its own environment: the
// paper's Figure 1 hardware in one value. Crash cuts power; Recover reboots
// into a recovered System with the same configuration.
type System = rig.Rig

// NewSystem builds and starts a freshly formatted system.
func NewSystem(cfg SystemConfig) (*System, error) { return rig.New(cfg) }

// SectorSize is the fixed sector size in bytes.
const SectorSize = geom.SectorSize
