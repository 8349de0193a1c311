package experiments

import (
	"errors"
	"slices"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

// A fault world is one system under fault plans driven by one load, named by
// its inputs alone (the rig description, fault scenario and seed included,
// and the load's seed), so a failing world replays exactly. The fault census
// and the ext-faulttol section both run through runFaultWorld, and each
// judges its outcome by its own policy.

// faultSlot is the width of the slots a system with several data disks
// spreads over them: slot k goes to disk k mod n.
const faultSlot = 16

// faultSystem is a built system under fault plans. Its client's device is
// the RAID-5 array, when there is one, or the rig's devices.
type faultSystem struct {
	rig   *rig.Rig
	array *raid.Array
	dev   *worldDev
	plans []*fault.Plan
}

// newFaultSystem builds cfg's rig, with a RAID-5 array over its devices when
// raid5 is set. The rig's plans are the system's; a caller may attach more
// before the world runs.
func newFaultSystem(cfg rig.Config, raid5 bool) (*faultSystem, error) {
	r, err := rig.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &faultSystem{rig: r, plans: r.Plans, dev: &worldDev{devs: r.Devs()}}
	if raid5 {
		if s.array, err = raid.New(r.Devs()); err != nil {
			r.Close()
			return nil, err
		}
		s.dev.devs = []blockdev.Device{s.array}
	}
	return s, nil
}

// worldDev spreads slot k over device k mod n at the same LBA and records
// every error that wraps none of blockdev's device sentinels.
type worldDev struct {
	devs         []blockdev.Device
	unclassified []error
}

func (w *worldDev) pick(lba int64) blockdev.Device {
	return w.devs[lba/faultSlot%int64(len(w.devs))]
}

var deviceSentinels = []error{blockdev.ErrMediaError, blockdev.ErrTimeout, blockdev.ErrDeviceFailed,
	blockdev.ErrOverload, blockdev.ErrDeadlineExceeded}

func (w *worldDev) note(err error) error {
	if err != nil && !slices.ContainsFunc(deviceSentinels, func(s error) bool { return errors.Is(err, s) }) {
		w.unclassified = append(w.unclassified, err)
	}
	return err
}

func (w *worldDev) ID() blockdev.DevID { return w.devs[0].ID() }
func (w *worldDev) Sectors() int64     { return w.devs[0].Sectors() }

func (w *worldDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	got, err := w.pick(lba).Read(p, lba, count)
	return got, w.note(err)
}

func (w *worldDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return w.note(w.pick(lba).Write(p, lba, count, data))
}

// faultOutcome is what one fault world saw: workload.Run's result and error
// (a closed stream stopped, or a request never completed); of the targets
// its acknowledged writes left, how many read back other bytes (lost),
// failed to read (readErrs) or were never read back (unread, a hang); every
// error that wraps no device sentinel; a Trail driver's own audit after the
// read-back; and the plans' trigger counts merged with the system's own
// fault-handling counters.
type faultOutcome struct {
	res                             *workload.Result
	runErr                          error
	targets, lost, readErrs, unread int
	unclassified                    []error
	invariants                      error
	counters                        telemetry.Counts
}

// runFaultWorld runs load against s's device, reads back every write it
// acknowledged (workload.Ledger) and audits the system. It closes s's
// environment.
func runFaultWorld(s *faultSystem, load workload.Load) faultOutcome {
	defer s.rig.Close()
	var ledger workload.Ledger
	load.OnAck = ledger.Record
	var out faultOutcome
	out.res, out.runErr = workload.Run(s.rig.Env, s.dev, load)
	var checks []workload.Check
	s.rig.Go("readback", func(p *sim.Proc) { checks = ledger.ReadBack(p, s.dev) })
	s.rig.Run()
	out.targets, out.unread = ledger.Targets(), ledger.Targets()-len(checks)
	for _, c := range checks {
		switch c.Outcome {
		case workload.OtherBytes:
			out.lost++
		case workload.ReadFailed:
			out.readErrs++
		}
	}
	out.unclassified = s.dev.unclassified
	switch {
	case s.array != nil:
		out.counters = s.array.Stats().Counters()
	case s.rig.Trail != nil:
		out.counters = s.rig.Trail.Stats().FaultCounters()
		out.invariants = s.rig.Trail.CheckInvariants()
	default:
		out.counters = telemetry.Counts{"stddisk.retries": 0, "stddisk.failures": 0}
		for _, d := range s.rig.Std {
			out.counters["stddisk.retries"] += d.Stats().Retries
			out.counters["stddisk.failures"] += d.Stats().Failures
		}
	}
	for _, pl := range s.plans {
		out.counters.Merge(pl.Stats().Counters())
	}
	return out
}
