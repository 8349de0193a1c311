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
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
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

// FormatLogDisk initializes a drive as a Trail log disk.
func FormatLogDisk(d *Disk) error { return trail.Format(d) }

// DefaultTrailConfig returns the paper's Trail configuration.
func DefaultTrailConfig() TrailConfig { return trail.Default() }

// NewTrail creates the Trail driver over a formatted log disk and data
// disks. It returns trail.ErrNeedsRecovery after a crash; run Recover.
func NewTrail(env *Env, log *Disk, data []*Disk, cfg TrailConfig) (*Driver, error) {
	return trail.NewDriver(env, log, data, cfg)
}

// NewStandardDevice exposes a drive as the paper's baseline: synchronous
// in-place I/O behind a LOOK elevator.
func NewStandardDevice(env *Env, d *Disk, id DevID) Device {
	return stddisk.New(env, d, id, sched.LOOK)
}

// Recover runs Trail crash recovery on a log disk, replaying pending
// records onto devs.
func Recover(p *Proc, log *Disk, devs map[DevID]Device, opts RecoverOptions) (*RecoverReport, error) {
	return trail.Recover(p, log, devs, opts)
}

// AttachFaults samples a fault plan for d from rng and installs it on the
// drive. The plan is fully sampled up front, so the same seed and config
// reproduce the same faults at the same virtual instants.
func AttachFaults(d *Disk, rng *Rand, cfg FaultConfig) *FaultPlan {
	return fault.Attach(d, rng, cfg)
}

// ParseFaultScenario parses the compact key=value fault DSL (e.g.
// "latent=3,timeout=1,failat=30s") into a FaultConfig.
func ParseFaultScenario(s string) (FaultConfig, error) { return fault.ParseScenario(s) }

// SystemConfig sizes a NewSystem.
type SystemConfig struct {
	// DataDisks is the number of data disks behind the Trail driver
	// (default 1; the paper uses up to 3).
	DataDisks int
	// LogDisks is the number of log disks (default 1; more than one
	// enables the paper's section 5.1 repositioning-hiding optimization).
	LogDisks int
	// LogDisk overrides the log disk profile (default ST41601N).
	LogDisk *DiskParams
	// DataDisk overrides the data disk profile (default WDCaviar).
	DataDisk *DiskParams
	// Trail tunes the driver (zero value = paper defaults).
	Trail TrailConfig
}

// System is an assembled Trail storage system on its own environment: the
// paper's Figure 1 hardware in one value.
type System struct {
	Env       *Env
	LogDisk   *Disk // the first log disk (see LogDisks for all)
	LogDisks  []*Disk
	DataDisks []*Disk
	Trail     *Driver
}

// NewSystem builds a freshly formatted Trail system.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.DataDisks <= 0 {
		cfg.DataDisks = 1
	}
	logP := ST41601N()
	if cfg.LogDisk != nil {
		logP = *cfg.LogDisk
	}
	dataP := WDCaviar()
	if cfg.DataDisk != nil {
		dataP = *cfg.DataDisk
	}
	if cfg.LogDisks <= 0 {
		cfg.LogDisks = 1
	}
	env := sim.NewEnv()
	var logs []*Disk
	for i := 0; i < cfg.LogDisks; i++ {
		lg := disk.New(env, logP)
		if err := trail.Format(lg); err != nil {
			env.Close()
			return nil, fmt.Errorf("tracklog: formatting log disk %d: %w", i, err)
		}
		logs = append(logs, lg)
	}
	var data []*Disk
	for i := 0; i < cfg.DataDisks; i++ {
		data = append(data, disk.New(env, dataP))
	}
	drv, err := trail.NewDriverMulti(env, logs, data, cfg.Trail)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("tracklog: starting driver: %w", err)
	}
	return &System{Env: env, LogDisk: logs[0], LogDisks: logs, DataDisks: data, Trail: drv}, nil
}

// Go spawns a simulated process (sugar over Env.Go).
func (s *System) Go(name string, fn func(p *Proc)) { s.Env.Go(name, fn) }

// Run drives the simulation until idle and returns the final virtual time.
func (s *System) Run() Time { return s.Env.Run() }

// RunUntil drives the simulation up to the deadline.
func (s *System) RunUntil(t Time) Time { return s.Env.RunUntil(t) }

// Close unwinds the environment (always call when done).
func (s *System) Close() { s.Env.Close() }

// Crash cuts power: every in-flight operation and the driver's host-memory
// state (staging buffer, queues) are lost, media survive. The system is
// unusable afterwards; call Recover to reboot into a recovered system.
func (s *System) Crash() {
	s.Env.Close()
	s.Trail.PowerCut()
}

// Recover reboots a crashed system: it reattaches the surviving disks to a
// fresh environment, runs Trail recovery (replaying pending records to the
// data disks), and returns the recovered system alongside the recovery
// report.
func (s *System) Recover(opts RecoverOptions) (*System, *RecoverReport, error) {
	env := sim.NewEnv()
	for _, lg := range s.LogDisks {
		lg.Reattach(env)
	}
	devs := map[DevID]Device{}
	for i, d := range s.DataDisks {
		d.Reattach(env)
		id := DevID{Major: 8, Minor: uint8(i)}
		devs[id] = stddisk.New(env, d, id, sched.LOOK)
	}
	var rep *RecoverReport
	var err error
	env.Go("recovery", func(p *Proc) {
		rep, err = trail.RecoverLogs(p, s.LogDisks, devs, opts)
	})
	env.Run()
	if err != nil {
		env.Close()
		return nil, nil, fmt.Errorf("tracklog: recovery: %w", err)
	}
	if opts.SkipWriteBack && !rep.Clean {
		// The log still holds the pending records; a driver cannot start
		// until they are propagated. Return the report only.
		env.Close()
		return nil, rep, nil
	}
	drv, err := trail.NewDriverMulti(env, s.LogDisks, s.DataDisks, trail.Default())
	if err != nil {
		env.Close()
		return nil, rep, fmt.Errorf("tracklog: restarting driver: %w", err)
	}
	return &System{Env: env, LogDisk: s.LogDisks[0], LogDisks: s.LogDisks, DataDisks: s.DataDisks, Trail: drv}, rep, nil
}

// SectorSize is the fixed sector size in bytes.
const SectorSize = geom.SectorSize
