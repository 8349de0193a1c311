package stacks

import (
	"errors"
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/fault"
	"tracklog/internal/geom"
	"tracklog/internal/kvdb"
	"tracklog/internal/raid"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// The stack recipes below are the crash rigs every tool and test shares: the
// Trail driver, a plain standard disk, a RAID-5 array of standard disks, and
// the WAL+transaction database over Trail devices. Each Build call assembles
// a fresh rig (internal/rig) and returns its drives; Recover reboots that
// rig's system on the drives it is given (rig.Rig.RecoverOn), the built ones
// or clones of them.

// exploreLogParams is the crash rigs' log disk: disk.Small, and
// exploreDataParams(name) their data disk, 100 cylinders of it with no skew.
func exploreLogParams() disk.Params {
	p := disk.Small()
	p.Name = "traillog"
	return p
}

func exploreDataParams(name string) disk.Params {
	p := disk.Small()
	p.Name, p.Geom = name, geom.Uniform(100, 2, 60)
	return p
}

// TrailStack is the core rig: one log disk, one data disk, the Trail driver.
// The audit reads raw media — recovery must have restored every logged
// sector to the data disk itself. scenario, when non-empty, attaches a fault
// plan (internal/fault DSL) to the data disk with the given seed; Trail must
// uphold the durability contract under those faults too.
func TrailStack(scenario string, faultSeed uint64) (crashexplore.Stack, error) {
	const (
		sectorsPer  = 4
		slotSpacing = 64
	)
	var fcfg fault.Config
	if scenario != "" {
		var err error
		if fcfg, err = fault.ParseScenario(scenario); err != nil {
			return crashexplore.Stack{}, err
		}
	}
	logP, dataP := exploreLogParams(), exploreDataParams("d")
	var sys *rig.Rig
	return crashexplore.Stack{
		Build: func(env *sim.Env) (crashexplore.WriteFunc, []*disk.Disk, error) {
			var err error
			if sys, err = rig.Prepare(rig.Config{Env: env, LogDisk: &logP, DataDisk: &dataP}); err != nil {
				return nil, nil, err
			}
			if scenario != "" {
				// The data disk only: the log disk stays healthy.
				fault.Attach(sys.DataDisks[0], sim.NewRand(faultSeed), fcfg)
			}
			if err := sys.Start(); err != nil {
				return nil, nil, err
			}
			dev := sys.Dev(0)
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, sectorsPer)
				return dev.Write(p, int64(slot*slotSpacing), sectorsPer, buf)
			}, sys.Drives(), nil
		},
		Recover: func(env2 *sim.Env, drives []*disk.Disk) (crashexplore.ReadFunc, error) {
			rebooted, _, err := sys.RecoverOn(env2, drives, trail.RecoverOptions{})
			if err != nil {
				return nil, err
			}
			data := rebooted.DataDisks[0]
			return func(p *sim.Proc, slot int) (int, bool) {
				got := data.MediaRead(int64(slot*slotSpacing), sectorsPer)
				return crashexplore.ParseVersion(got, slot, sectorsPer)
			}, nil
		},
	}, nil
}

func raidMemberParams() disk.Params {
	return disk.Params{
		Name:            "r",
		RPM:             7200,
		Geom:            geom.Uniform(200, 2, 64),
		SeekT2T:         time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	}
}

// RAID5Stack is a 4-member RAID-5 array of standard disks. Slots are single
// sectors: RAID-5 promises acknowledged-write survival only at the sector
// atom (the write hole tears multi-sector overwrites legitimately).
func RAID5Stack() crashexplore.Stack {
	const (
		members     = 4
		slotSpacing = 64
	)
	memberP := raidMemberParams()
	var sys *rig.Rig
	return crashexplore.Stack{
		Build: func(env *sim.Env) (crashexplore.WriteFunc, []*disk.Disk, error) {
			var err error
			sys, err = rig.New(rig.Config{Env: env, DataDisks: members, DataDisk: &memberP, Baseline: sched.LOOK, Major: 9, Name: "r"})
			if err != nil {
				return nil, nil, err
			}
			arr, err := raid.New(sys.Devs())
			if err != nil {
				return nil, nil, err
			}
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, 1)
				return arr.Write(p, int64(slot*slotSpacing), 1, buf)
			}, sys.Drives(), nil
		},
		Recover: func(env2 *sim.Env, drives []*disk.Disk) (crashexplore.ReadFunc, error) {
			// RAID has no recovery pass: reboot the members and assemble a
			// fresh array over them.
			rebooted, _, err := sys.RecoverOn(env2, drives, trail.RecoverOptions{})
			if err != nil {
				return nil, err
			}
			arr2, err := raid.New(rebooted.Devs())
			if err != nil {
				return nil, err
			}
			return func(p *sim.Proc, slot int) (int, bool) {
				buf, err := arr2.Read(p, int64(slot*slotSpacing), 1)
				if err != nil {
					return 0, false
				}
				return crashexplore.ParseVersion(buf, slot, 1)
			}, nil
		},
	}
}

// StdStack is the baseline rig: one standard disk behind a LOOK scheduler,
// no logging layer. Slots are single sectors — a plain disk acknowledges a
// write only after the media transfer completes, but multi-sector writes
// tear legitimately. It completes the four-way {trail, stddisk, raid5,
// wal} comparison the explorer and the experiments' kernel-cost section
// share.
func StdStack() crashexplore.Stack {
	const (
		slotSpacing = 64
	)
	dataP := exploreDataParams("std")
	var sys *rig.Rig
	return crashexplore.Stack{
		Build: func(env *sim.Env) (crashexplore.WriteFunc, []*disk.Disk, error) {
			var err error
			if sys, err = rig.New(rig.Config{Env: env, DataDisk: &dataP, Baseline: sched.LOOK}); err != nil {
				return nil, nil, err
			}
			dev := sys.Dev(0)
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, 1)
				return dev.Write(p, int64(slot*slotSpacing), 1, buf)
			}, sys.Drives(), nil
		},
		Recover: func(env2 *sim.Env, drives []*disk.Disk) (crashexplore.ReadFunc, error) {
			// No recovery pass: the platter is the whole durable state.
			rebooted, _, err := sys.RecoverOn(env2, drives, trail.RecoverOptions{})
			if err != nil {
				return nil, err
			}
			raw := rebooted.DataDisks[0]
			return func(p *sim.Proc, slot int) (int, bool) {
				got := raw.MediaRead(int64(slot*slotSpacing), 1)
				return crashexplore.ParseVersion(got, slot, 1)
			}, nil
		},
	}
}

func walSlotKey(slot int) []byte { return []byte(fmt.Sprintf("slot-%d", slot)) }

func walSlotValue(slot, version int) []byte {
	return []byte(fmt.Sprintf("slot=%d version=%d", slot, version))
}

// WALStack is the full database rig of the paper's evaluation: a B-tree
// store and a write-ahead log, both on Trail devices; a "write" is a
// committed transaction, and recovery is two-level — Trail's block recovery
// restores logged sectors and restarts the driver, then the database replays
// its redo log through it.
func WALStack() crashexplore.Stack {
	const (
		cachePages = 32
	)
	logP, walP := exploreLogParams(), exploreDataParams("waldev")
	var sys *rig.Rig
	return crashexplore.Stack{
		Build: func(env *sim.Env) (crashexplore.WriteFunc, []*disk.Disk, error) {
			// Data disk 0 holds the WAL, data disk 1 the B-tree store; the
			// two drives differ only in the name their probe events carry.
			var err error
			if sys, err = rig.Prepare(rig.Config{Env: env, LogDisk: &logP, DataDisks: 2, DataDisk: &walP}); err != nil {
				return nil, nil, err
			}
			sys.DataDisks[1] = disk.New(env, exploreDataParams("treedev"))

			// Create the (empty) tree durably before the run, via an instant
			// device, so recovery can reopen it by catalog.
			var buildErr error
			env.Go("load", func(p *sim.Proc) {
				inst := disk.NewInstantDev(sys.DataDisks[1], blockdev.DevID{Major: 3, Minor: 1})
				store, err := kvdb.Open(p, inst, cachePages)
				if err != nil {
					buildErr = err
					return
				}
				if _, err := store.CreateTree(p); err != nil {
					buildErr = err
					return
				}
				buildErr = store.Cache().FlushAll(p)
			})
			env.Run()
			if buildErr != nil {
				return nil, nil, buildErr
			}
			if err := sys.Start(); err != nil {
				return nil, nil, err
			}

			var (
				tree *kvdb.Tree
				mgr  *txn.Manager
			)
			env.Go("open", func(p *sim.Proc) {
				walLog, err := wal.New(env, wal.Config{Dev: sys.Dev(0), Sectors: sys.Dev(0).Sectors(), Mode: wal.SyncEveryCommit})
				if err != nil {
					buildErr = err
					return
				}
				mgr = txn.NewManager(env, walLog)
				store, err := kvdb.Open(p, sys.Dev(1), cachePages)
				if err != nil {
					buildErr = err
					return
				}
				tree, buildErr = store.Tree(0)
			})
			env.Run()
			if buildErr != nil {
				return nil, nil, buildErr
			}

			return func(p *sim.Proc, slot, version int) error {
				tx := mgr.Begin()
				key, val := walSlotKey(slot), walSlotValue(slot, version)
				if err := tx.Put(p, tree, 0, key, val, len(val), string(key)); err != nil {
					tx.Abort(p)
					return err
				}
				return tx.Commit(p)
			}, sys.Drives(), nil
		},
		Recover: func(env2 *sim.Env, drives []*disk.Disk) (crashexplore.ReadFunc, error) {
			rebooted, _, err := sys.RecoverOn(env2, drives, trail.RecoverOptions{})
			if err != nil {
				return nil, fmt.Errorf("trail recovery: %w", err)
			}
			var tree *kvdb.Tree
			var rerr error
			env2.Go("recover", func(p *sim.Proc) {
				walDev := rebooted.Dev(0)
				records, err := wal.ReadRecords(p, walDev, walDev.Sectors())
				if err != nil {
					rerr = fmt.Errorf("wal scan: %w", err)
					return
				}
				store, err := kvdb.Open(p, rebooted.Dev(1), cachePages)
				if err != nil {
					rerr = fmt.Errorf("reopen store: %w", err)
					return
				}
				if tree, err = store.Tree(0); err != nil {
					rerr = fmt.Errorf("reopen tree: %w", err)
					return
				}
				if _, err := txn.RecoverDB(p, records, func(tag uint16) *kvdb.Tree {
					return tree
				}); err != nil {
					rerr = fmt.Errorf("redo: %w", err)
				}
			})
			env2.Run()
			if rerr != nil {
				return nil, rerr
			}
			return func(p *sim.Proc, slot int) (int, bool) {
				val, err := tree.Get(p, walSlotKey(slot))
				if errors.Is(err, kvdb.ErrNotFound) {
					return 0, true // never committed
				}
				if err != nil {
					return 0, false
				}
				var gotSlot, gotVer int
				n, serr := fmt.Sscanf(string(val), "slot=%d version=%d", &gotSlot, &gotVer)
				if serr != nil || n != 2 || gotSlot != slot {
					return 0, false
				}
				return gotVer, true
			}, nil
		},
	}
}

// ByName returns the named stack recipe: "trail", "stddisk", "raid5", or
// "wal". scenario/faultSeed apply to the trail stack only; a scenario given
// to another stack is an error.
func ByName(name, scenario string, faultSeed uint64) (crashexplore.Stack, error) {
	if name == "trail" {
		return TrailStack(scenario, faultSeed)
	}
	build, ok := map[string]func() crashexplore.Stack{"stddisk": StdStack, "raid5": RAID5Stack, "wal": WALStack}[name]
	switch {
	case !ok:
		return crashexplore.Stack{}, fmt.Errorf("crashexplore: unknown stack %q (trail, stddisk, raid5, wal)", name)
	case scenario != "":
		return crashexplore.Stack{}, errors.New("crashexplore: fault scenarios are wired to the trail stack only")
	}
	return build(), nil
}
