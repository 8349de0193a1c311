// Package crashexplore is the one crash harness. Its seeded trial
// (RunSingle) runs a concurrent slot-writer workload against a storage
// stack, cuts power at one seed-dependent instant, recovers the stack on a
// fresh environment, and audits the durability contract. Its explorer
// (New/Run) generalizes the one cut to an exhaustive sweep: it enumerates
// every interesting event in a window — each acknowledgement, each media
// sector write, each write-back flight boundary, each log-commit — forks a
// branch at that event, cuts power there, runs recovery, and audits the
// durability contract on every branch: an ACKNOWLEDGED write never comes
// back lost or torn.
//
// Branches fork from the census, the one run of the seeded workload. The
// kernel numbers every probe event globally (sim.EmitProbe) and can pause
// the world at one (sim.ProbeHook); paused there, the census is what a power
// cut at that event would interrupt. A cut keeps only the drives, so the
// branch clones the drives the stack was built on (disk.Disk.Clone: media,
// arm, counters, fault plan), recovers the clones on a fresh environment and
// audits them against the writes acknowledged so far, and the census resumes.
// The census's processes never see the branch, and the branch's recovery
// never touches the census's drives. Only one branch's clones are alive at a
// time.
//
// The minimal failing event index (Report.FirstFailing) is the bisection
// handle: the earliest interesting event whose cut breaks recovery. Fixes are
// re-checked by re-exploring a small window around that index instead of the
// whole run.
package crashexplore

import (
	"fmt"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// WriteFunc makes version v of slot s durable, returning nil once the stack
// has acknowledged the write. An error stops that slot's writer (expected at
// the power cut).
type WriteFunc func(p *sim.Proc, slot, version int) error

// ReadFunc reports a slot's recovered state. consistent=false means a torn
// or mixed payload; version 0 with consistent=true means "never written".
type ReadFunc func(p *sim.Proc, slot int) (version int, consistent bool)

// Stack describes one storage stack under crash exploration. Build assembles
// a fresh stack (new drives, new driver) on the given environment and names
// the drives it made: they are what survives a power cut. Recover reboots the
// stack on drives the harness passes back, the built ones themselves
// (RunSingle) or clones of them taken at a cut (the explorer); everything
// but the drives is reconstructed.
type Stack struct {
	// Slots is the number of concurrent writers (each owns one slot).
	Slots int

	// Build assembles the stack on a fresh environment and returns the
	// writer the slot procs drive and the stack's drives.
	Build func(env *sim.Env) (WriteFunc, []*disk.Disk, error)

	// Recover reboots the crashed stack on drives, in the order Build
	// returned them, on a second environment (the first has been
	// power-cut), and returns the durable-state reader. It must run the
	// recovery to completion (env.Run) before returning.
	Recover func(env *sim.Env, drives []*disk.Disk) (ReadFunc, error)

	// Post, if non-nil, runs after the audit for restart checks (e.g. the
	// recovered stack accepts new writes). Only RunSingle invokes it; the
	// explorer skips it on every branch.
	Post func(env *sim.Env) error
}

// launchWorkload starts the harness's slot writers on env: one process per
// slot, writing monotonically increasing versions with a seeded think time.
// It returns the per-slot acknowledged-version array (updated as writes
// return) and RunSingle's seed-dependent cut instant, drawn after the think
// times from the same random stream, so a seed names one trial for good.
func launchWorkload(env *sim.Env, seed uint64, slots int, write WriteFunc) (acked []int, cut time.Duration) {
	acked = make([]int, slots)
	rng := sim.NewRand(seed + 1000)
	for s := 0; s < slots; s++ {
		s := s
		gap := time.Duration(rng.IntRange(0, 4000)) * time.Microsecond
		env.Go(fmt.Sprintf("slot-%d", s), func(p *sim.Proc) {
			for v := 1; ; v++ {
				if err := write(p, s, v); err != nil {
					return
				}
				acked[s] = v
				p.Sleep(gap)
			}
		})
	}
	cut = time.Duration(5+rng.IntRange(0, 120)) * time.Millisecond
	return acked, cut
}

// SlotAudit is one slot's recovery outcome against the acknowledged state at
// the cut.
type SlotAudit struct {
	Slot  int  `json:"slot"`
	Acked int  `json:"acked"` // last version acknowledged before the cut
	Found int  `json:"found"` // version recovered
	Torn  bool `json:"torn"`  // payload torn or mixed across versions
}

// Lost reports whether an acknowledged write did not survive.
func (a SlotAudit) Lost() bool { return !a.Torn && a.Found < a.Acked }

// Failed reports whether the slot violates the durability contract.
func (a SlotAudit) Failed() bool { return a.Torn || a.Lost() }

// audit reads back every slot on the recovery environment and compares it
// with the acknowledged state. It runs as one process named "audit", slot
// order.
func audit(env *sim.Env, read ReadFunc, acked []int) []SlotAudit {
	out := make([]SlotAudit, len(acked))
	env.Go("audit", func(p *sim.Proc) {
		for s := range acked {
			v, consistent := read(p, s)
			out[s] = SlotAudit{Slot: s, Acked: acked[s], Found: v, Torn: !consistent}
		}
	})
	env.Run()
	return out
}

// SingleResult is the outcome of one time-cut trial.
type SingleResult struct {
	Cut    time.Duration // the seed-dependent cut instant
	Audits []SlotAudit   // every slot, in slot order
}

// RunSingle executes one seeded crash trial against the stack: build, run
// the slot writers until the seed-dependent cut instant, cut power, recover
// on a fresh environment, audit every slot, then run the stack's Post
// restart check.
func RunSingle(st Stack, seed uint64) (*SingleResult, error) {
	env := sim.NewEnv()
	write, drives, err := st.Build(env)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("crashexplore: build: %w", err)
	}
	acked, cut := launchWorkload(env, seed, st.Slots, write)
	env.RunUntil(sim.Time(cut))
	env.Close()

	env2 := sim.NewEnv()
	defer env2.Close()
	read, err := st.Recover(env2, drives)
	if err != nil {
		return nil, fmt.Errorf("crashexplore: recover: %w", err)
	}
	res := &SingleResult{Cut: cut, Audits: audit(env2, read, acked)}
	if st.Post != nil {
		if err := st.Post(env2); err != nil {
			return nil, fmt.Errorf("crashexplore: post: %w", err)
		}
	}
	return res, nil
}

// Payload builds a block payload whose every sector encodes (slot, version),
// so mixing sectors from two versions is detectable on read-back.
func Payload(slot, version, sectors int) []byte {
	buf := make([]byte, sectors*geom.SectorSize)
	for sec := 0; sec < sectors; sec++ {
		copy(buf[sec*geom.SectorSize:], fmt.Sprintf("slot=%d version=%d sector=%d", slot, version, sec))
		// Fill the rest deterministically from (slot, version).
		for i := 64; i < geom.SectorSize; i++ {
			buf[sec*geom.SectorSize+i] = byte(slot*31 + version*7 + sec)
		}
	}
	return buf
}

// ParseVersion extracts the version from a slot's on-media payload of
// exactly sectors sectors and checks all sectors agree (no torn mixes).
// Version 0 with consistent=true means "never written"; a buffer of any
// other length is inconsistent.
func ParseVersion(buf []byte, slot, sectors int) (int, bool) {
	if sectors < 1 || len(buf) != sectors*geom.SectorSize {
		return 0, false
	}
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return 0, true
	}
	version := -1
	for sec := 0; sec < sectors; sec++ {
		var gotSlot, gotVer, gotSec int
		n, err := fmt.Sscanf(string(buf[sec*geom.SectorSize:sec*geom.SectorSize+64]),
			"slot=%d version=%d sector=%d", &gotSlot, &gotVer, &gotSec)
		if err != nil || n != 3 || gotSlot != slot || gotSec != sec {
			return 0, false
		}
		if version == -1 {
			version = gotVer
		} else if gotVer != version {
			return 0, false // mixed versions across sectors
		}
		// Verify the filler too.
		for i := 64; i < geom.SectorSize; i++ {
			if buf[sec*geom.SectorSize+i] != byte(slot*31+gotVer*7+sec) {
				return 0, false
			}
		}
	}
	return version, true
}
