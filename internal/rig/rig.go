// Package rig assembles the paper's Figure 1 in one place: log disk(s) and
// data disks behind the Trail driver, or the same data disks behind the
// standard subsystem's elevator as the baseline. One Config describes a
// rig; the Rig built from it owns the drives, the driver or the stddisk
// devices, the power cut and the reboot. Every system the root module runs —
// the tracklog facade, the experiments, the crash stacks, the cluster's
// shards, the commands and the examples — is built here, so the reboot
// protocol and the fault-attach order exist once.
package rig

import (
	"fmt"
	"strconv"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
)

// Config describes a rig. The zero value is the paper's standard Trail
// system: one ST41601N log disk, one WD Caviar data disk, default driver
// configuration, a fresh environment, no faults, no instruments.
type Config struct {
	// DataDisks is the number of data disks (default 1; the paper uses up
	// to 3).
	DataDisks int
	// LogDisks is the number of log disks behind the Trail driver (default
	// 1; more than one enables the paper's section 5.1 repositioning-hiding
	// optimization). A baseline rig has none.
	LogDisks int
	// LogDisk overrides the log disk profile (default ST41601N).
	LogDisk *disk.Params
	// DataDisk overrides the data disk profile (default WDCaviar).
	DataDisk *disk.Params
	// Trail tunes the driver (zero value = paper defaults). A recovered rig
	// restarts its driver with the same value.
	Trail trail.Config
	// Baseline, when nonzero, builds the standard subsystem instead of
	// Trail: no log disk, each data disk a stddisk device behind an elevator
	// of this policy.
	Baseline sched.Policy
	// Major is the baseline devices' major number (default 3, IDE; array
	// members use 9); device i is (Major, i), the identity its probe events
	// and errors carry. Name prefixes their instrument tracks: device i
	// reports as Name+i (default "disk"). Trail rigs fix both themselves
	// (major 8; logN, dataN).
	Major uint8
	Name  string
	// Faults, when non-nil, is sampled once per drive — log disks first,
	// then data disks — from one random stream seeded with FaultSeed, so a
	// seed and a scenario name the same faults on every run.
	Faults    *fault.Config
	FaultSeed uint64
	// Env is the environment to build on (default: a fresh one, which
	// Prepare closes again if the build fails).
	Env *sim.Env
	// Instruments are attached to the kernel and to every layer at Start;
	// Recover hands the rebooted rig the Tracer and Recorder again (see
	// RecoverOn).
	Instruments Instruments
}

// Rig is an assembled storage system: the paper's Figure 1 hardware in one
// value.
type Rig struct {
	Env       *sim.Env
	LogDisk   *disk.Disk // the first log disk (nil on a baseline rig)
	LogDisks  []*disk.Disk
	DataDisks []*disk.Disk
	// Trail is the driver of a started Trail rig.
	Trail *trail.Driver
	// Std are the devices of a started baseline rig, one per data disk.
	Std []*stddisk.Device
	// Plans are the fault plans Config.Faults attached, logs first.
	Plans []*fault.Plan

	cfg Config
}

// New builds and starts a rig: Prepare followed by Start.
func New(cfg Config) (*Rig, error) {
	r, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Start(); err != nil {
		return nil, err
	}
	return r, nil
}

// Prepare builds the hardware only: the environment, freshly formatted log
// disks, blank data disks, and the fault plans. No driver daemon exists yet,
// so a caller can populate the data disks through disk.NewInstantDev (and
// run the environment to do so) before Start brings the system up.
func Prepare(cfg Config) (*Rig, error) {
	if cfg.DataDisks <= 0 {
		cfg.DataDisks = 1
	}
	if cfg.Baseline != 0 {
		cfg.LogDisks = 0
		if cfg.Major == 0 {
			cfg.Major = 3
		}
		if cfg.Name == "" {
			cfg.Name = "disk"
		}
	} else if cfg.LogDisks <= 0 {
		cfg.LogDisks = 1
	}
	logP, dataP := disk.ST41601N(), disk.WDCaviar()
	if cfg.LogDisk != nil {
		logP = *cfg.LogDisk
	}
	if cfg.DataDisk != nil {
		dataP = *cfg.DataDisk
	}
	r := &Rig{Env: cfg.Env, cfg: cfg}
	if r.Env == nil {
		r.Env = sim.NewEnv()
	}
	if cfg.LogDisks > 0 {
		r.LogDisks = make([]*disk.Disk, cfg.LogDisks)
	}
	for i := range r.LogDisks {
		lg := disk.New(r.Env, logP)
		if err := trail.Format(lg); err != nil {
			r.abandon()
			return nil, fmt.Errorf("rig: formatting log disk %d: %w", i, err)
		}
		r.LogDisks[i] = lg
	}
	r.DataDisks = make([]*disk.Disk, cfg.DataDisks)
	for i := range r.DataDisks {
		r.DataDisks[i] = disk.New(r.Env, dataP)
	}
	if cfg.LogDisks > 0 {
		r.LogDisk = r.LogDisks[0]
	}
	if cfg.Faults != nil {
		rng := sim.NewRand(cfg.FaultSeed)
		for _, d := range r.LogDisks {
			r.Plans = append(r.Plans, fault.Attach(d, rng, *cfg.Faults))
		}
		for _, d := range r.DataDisks {
			r.Plans = append(r.Plans, fault.Attach(d, rng, *cfg.Faults))
		}
	}
	return r, nil
}

// abandon closes the environment of a failed build, unless the caller
// supplied it.
func (r *Rig) abandon() {
	if r.cfg.Env == nil {
		r.Env.Close()
	}
}

// Start brings the prepared system up — the Trail driver and its daemons,
// or one stddisk device per data disk — and attaches Config.Instruments to
// the kernel and to every layer.
func (r *Rig) Start() error {
	if r.cfg.Baseline != 0 {
		r.Std = make([]*stddisk.Device, len(r.DataDisks))
		for i, d := range r.DataDisks {
			r.Std[i] = stddisk.New(r.Env, d, blockdev.DevID{Major: r.cfg.Major, Minor: uint8(i)}, r.cfg.Baseline)
		}
	} else {
		drv, err := trail.NewDriverMulti(r.Env, r.LogDisks, r.DataDisks, r.cfg.Trail)
		if err != nil {
			r.abandon()
			return fmt.Errorf("rig: starting driver: %w", err)
		}
		r.Trail = drv
	}
	r.cfg.Instruments.AttachKernel(r.Env)
	r.Attach(r.cfg.Instruments)
	return nil
}

// Dev returns the started rig's block device over data disk i: the Trail
// driver's device, or the baseline's stddisk device.
func (r *Rig) Dev(i int) blockdev.Device {
	if r.Trail != nil {
		return r.Trail.Dev(i)
	}
	return r.Std[i]
}

// Devs returns Dev(i) for every data disk, in order (the member list an
// array is assembled over).
func (r *Rig) Devs() []blockdev.Device {
	devs := make([]blockdev.Device, len(r.DataDisks))
	for i := range devs {
		devs[i] = r.Dev(i)
	}
	return devs
}

// Go spawns a simulated process (sugar over Env.Go).
func (r *Rig) Go(name string, fn func(p *sim.Proc)) { r.Env.Go(name, fn) }

// Run drives the simulation until idle and returns the final virtual time.
func (r *Rig) Run() sim.Time { return r.Env.Run() }

// RunUntil drives the simulation up to the deadline.
func (r *Rig) RunUntil(t sim.Time) sim.Time { return r.Env.RunUntil(t) }

// Close unwinds the environment (always call when done).
func (r *Rig) Close() { r.Env.Close() }

// Crash cuts power: every in-flight operation and the driver's host-memory
// state (staging buffer, queues) are lost, media and fault plans survive.
// The rig is unusable afterwards; call Recover to reboot it.
func (r *Rig) Crash() {
	r.Env.Close()
	if r.Trail != nil {
		r.Trail.PowerCut()
	}
}

// Drives returns the rig's drives, log disks first, then data disks: what a
// power cut leaves behind, in the order RecoverOn takes them.
func (r *Rig) Drives() []*disk.Disk {
	return append(append([]*disk.Disk(nil), r.LogDisks...), r.DataDisks...)
}

// Recover reboots a crashed rig on its own drives and a fresh environment;
// see RecoverOn.
func (r *Rig) Recover(opts trail.RecoverOptions) (*Rig, *trail.RecoverReport, error) {
	env := sim.NewEnv()
	n, rep, err := r.RecoverOn(env, r.Drives(), opts)
	if n == nil {
		env.Close()
	}
	return n, rep, err
}

// RecoverOn reboots a crashed rig's system on drives, in Drives order: the
// rig's own, or clones of them (disk.Disk.Clone) taken at the instant of a
// cut. It runs env to completion: every drive is reattached to env, Trail
// recovery replays the pending records onto the data disks through
// LOOK-scheduled stddisk devices (which record their commands into
// Config.Instruments.Recorder as dataN), and the system restarts with the
// crashed rig's own Config. The rebooted rig's Plans are the fault plans the
// given drives carry. A baseline rig has no recovery pass and a nil report.
// When opts.SkipWriteBack leaves records pending, no driver can start: the
// rig is nil and only the report is returned.
//
// Of the crashed rig's Instruments the restarted system keeps the Tracer and
// the Recorder only. The Registry and the Timeline belong to the crashed
// world: its series and lanes are registered under the names the restarted
// layers would use, the registry's read functions were released when the
// crashed environment closed, and the timeline runs on the old clock. A
// caller who wants the recovered rig observed calls AttachKernel on env and
// Attach on the returned rig with a fresh bundle.
func (r *Rig) RecoverOn(env *sim.Env, drives []*disk.Disk, opts trail.RecoverOptions) (*Rig, *trail.RecoverReport, error) {
	logs := len(r.LogDisks)
	n := &Rig{Env: env, DataDisks: drives[logs:], cfg: r.cfg}
	if logs > 0 {
		n.LogDisks, n.LogDisk = drives[:logs:logs], drives[0]
	}
	n.cfg.Env = env
	n.cfg.Instruments = Instruments{Tracer: r.cfg.Instruments.Tracer, Recorder: r.cfg.Instruments.Recorder}
	for _, d := range drives {
		d.Reattach(env)
		if r.cfg.Faults != nil {
			n.Plans = append(n.Plans, d.Injector().(*fault.Plan))
		}
	}
	var rep *trail.RecoverReport
	if len(n.LogDisks) > 0 {
		devs := make(map[blockdev.DevID]blockdev.Device, len(n.DataDisks))
		for i, d := range n.DataDisks {
			id := blockdev.DevID{Major: 8, Minor: uint8(i)}
			sd := stddisk.New(env, d, id, sched.LOOK)
			if rec := n.cfg.Instruments.Recorder; rec != nil {
				sd.SetRecorder(rec, "data"+strconv.Itoa(i))
			}
			devs[id] = sd
		}
		var err error
		env.Go("recovery", func(p *sim.Proc) {
			rep, err = trail.RecoverLogs(p, n.LogDisks, devs, opts)
		})
		env.Run()
		if err != nil {
			return nil, nil, fmt.Errorf("rig: recovery: %w", err)
		}
		if opts.SkipWriteBack && !rep.Clean {
			return nil, rep, nil
		}
	}
	if err := n.Start(); err != nil {
		return nil, rep, err
	}
	return n, rep, nil
}
