package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"tracklog/internal/blockdev"
	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/tpcc"
	"tracklog/internal/trail"
	"tracklog/internal/wal"
	"tracklog/internal/workload"
)

// Every catalogue point that is one block load, or one TPC-C run, runs in one
// of two worlds. A raw-write world (runWorld) is one system driven by its
// loads in order, named by its inputs alone (the rig description, fault
// scenario and seed included, and the loads' seeds), so a failing world
// replays exactly. The raw-write points run through runPoint and are judged
// by verdict; the fault census and the ext-faulttol section run worlds under
// fault plans and judge each outcome by their own policy. A TPC-C world
// (tpccWorld) is one TPC-C run on one storage system.

// faultSlot is the width of the slots a system with several data disks
// spreads over them: slot k goes to disk k mod n.
const faultSlot = 16

// system is a built system, under fault plans when its rig has them. Its
// client's device is the RAID-5 array, when there is one, or the rig's
// devices.
type system struct {
	rig   *rig.Rig
	array *raid.Array
	dev   *worldDev
	// logStart is each log disk's sectors and writes when the system was
	// built.
	logStart []logCount
}

// logCount is what a log disk has written: sectors and commands.
type logCount struct{ sectors, writes int64 }

// newSystem builds cfg's rig, with a RAID-5 array over its devices when
// raid5 is set. The rig's plans are the system's; a caller may attach more
// and append them to the rig's Plans before the world runs.
func newSystem(cfg rig.Config, raid5 bool) (*system, error) {
	r, err := rig.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &system{rig: r, dev: &worldDev{devs: r.Devs()}}
	if raid5 {
		if s.array, err = raid.New(r.Devs()); err != nil {
			r.Close()
			return nil, err
		}
		s.dev.devs = []blockdev.Device{s.array}
	}
	for _, d := range r.LogDisks {
		st := d.Stats()
		s.logStart = append(s.logStart, logCount{st.SectorsWritten, st.Writes})
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

// outcome is what one world saw: each load's workload.Run result, up to the
// first that returned an error (a closed stream stopped, or a request never
// completed); the driver's, the array's and the log disks' stats after the
// loads, before the read-back; of the targets the acknowledged writes left,
// how many read back other bytes (lost), failed to read (readErrs) or were
// never read back (unread, a hang); every error that wraps no device
// sentinel; a Trail driver's own audit after the read-back; and the plans'
// trigger counts merged with the system's own fault-handling counters.
type outcome struct {
	res                             []*workload.Result
	runErr                          error
	trail                           *trail.Stats
	array                           raid.Stats
	logs                            []logCount
	targets, lost, readErrs, unread int
	unclassified                    []error
	invariants                      error
	counters                        telemetry.Counts
}

// runWorld runs loads one after another against s's device, reads back every
// write they acknowledged (workload.Ledger) and audits the system. It closes
// s's environment.
func runWorld(s *system, loads ...workload.Load) outcome {
	defer s.rig.Close()
	var ledger workload.Ledger
	var out outcome
	for _, load := range loads {
		load.OnAck = ledger.Record
		res, err := workload.Run(s.rig.Env, s.dev, load)
		out.res = append(out.res, res)
		if out.runErr = err; err != nil {
			break
		}
		ledger.Settle()
	}
	if s.rig.Trail != nil {
		st := s.rig.Trail.Stats()
		out.trail = &st
	}
	if s.array != nil {
		out.array = s.array.Stats()
	}
	for i, d := range s.rig.LogDisks {
		st := d.Stats()
		out.logs = append(out.logs, logCount{st.SectorsWritten - s.logStart[i].sectors, st.Writes - s.logStart[i].writes})
	}
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
	if s.array != nil {
		out.counters = s.array.Stats().Counters()
		for _, pl := range s.rig.Plans {
			out.counters.Merge(pl.Stats().Counters())
		}
		return out
	}
	out.counters = s.rig.FaultCounters()
	if s.rig.Trail != nil {
		out.invariants = s.rig.Trail.CheckInvariants()
	}
	return out
}

// problems lists the census's verdicts the world broke: a load stopped or
// left a request unfinished, the read-back stopped, an acknowledged write
// read back other bytes, the driver's audit failed, or an error wrapped no
// device sentinel. A failed read is the caller's to judge.
func (o *outcome) problems() []string {
	var problems []string
	if o.runErr != nil {
		problems = append(problems, o.runErr.Error())
	}
	if o.unread > 0 {
		problems = append(problems, fmt.Sprintf("read-back stopped before %d of %d acknowledged writes", o.unread, o.targets))
	}
	if o.lost > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d acknowledged writes read back other data", o.lost, o.targets))
	}
	if o.invariants != nil {
		problems = append(problems, o.invariants.Error())
	}
	for _, err := range o.unclassified {
		problems = append(problems, "error wraps no device sentinel: "+err.Error())
	}
	return problems
}

// verdict judges a fault-free point: the census's verdicts, no failed read,
// and on Trail the records law, under which the log disks wrote exactly the
// sectors logged plus one header sector per record. Its error names the
// point and every verdict the world broke.
func (o *outcome) verdict(point string) error {
	problems := o.problems()
	if o.readErrs > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d acknowledged writes failed to read back", o.readErrs, o.targets))
	}
	if o.trail != nil {
		var written int64
		for _, l := range o.logs {
			written += l.sectors
		}
		if want := o.trail.LoggedSectors + o.trail.Records; written != want {
			problems = append(problems, fmt.Sprintf("log disks wrote %d sectors, not %d logged + %d record headers",
				written, o.trail.LoggedSectors, o.trail.Records))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", point, strings.Join(problems, "; "))
}

// runPoint runs one fault-free raw-write point named point: cfg's system
// (with a RAID-5 array over it when raid5 is set), driven by the loads that
// loads builds for its device's sectors, and judged by verdict.
func runPoint(point string, cfg rig.Config, raid5 bool, loads func(sectors int64) ([]workload.Load, error)) (*outcome, error) {
	s, err := newSystem(cfg, raid5)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", point, err)
	}
	ls, err := loads(s.dev.Sectors())
	if err != nil {
		s.rig.Close()
		return nil, fmt.Errorf("%s: %w", point, err)
	}
	out := runWorld(s, ls...)
	return &out, out.verdict(point)
}

// tpccWorld runs one TPC-C point: the paper's §5.2 hardware — one disk for
// the database log, two for the tables — behind the Trail driver (and its
// ST41601N log disk) or the standard subsystem, with the system's commit
// discipline, cfg's database and concurrency terminals seeded by seed. It
// returns the run's result and, over Trail, the driver's stats. A
// sync-commit point at concurrency 1 fails unless its one terminal is never
// idle: the measured responses and the checkpoints run before them sum to
// the measured phase, within 0.1 %.
func tpccWorld(system StorageSystem, cfg TPCCConfig, concurrency int, seed uint64) (*tpcc.Result, trail.Stats, error) {
	var hw rig.Config
	mode := wal.SyncEveryCommit
	switch system {
	case Ext2Trail:
	case Ext2:
		hw.Baseline = sched.LOOK
	case Ext2GC:
		hw.Baseline = sched.LOOK
		mode = wal.GroupCommit
	default:
		return nil, trail.Stats{}, fmt.Errorf("unknown system %v", system)
	}
	r, runner, err := tpcc.Deploy(hw, cfg.DB, wal.Config{Mode: mode, BufferBytes: cfg.LogBufferKB * 1024})
	if err != nil {
		return nil, trail.Stats{}, err
	}
	defer r.Close()
	res, err := runner.Run(r.Env, tpcc.RunConfig{
		Transactions: cfg.Transactions,
		Concurrency:  concurrency,
		Warmup:       cfg.Warmup,
		Seed:         seed,
	})
	if err != nil {
		return nil, trail.Stats{}, err
	}
	var st trail.Stats
	if r.Trail != nil {
		st = r.Trail.Stats()
	}
	busy := res.Response.Sum() + res.CheckpointTime
	if concurrency == 1 && mode == wal.SyncEveryCommit && (busy-res.Elapsed).Abs()*1000 > res.Elapsed {
		return nil, st, fmt.Errorf("responses %v + checkpoints %v = %v do not tile elapsed %v",
			res.Response.Sum(), res.CheckpointTime, busy, res.Elapsed)
	}
	return res, st, nil
}
