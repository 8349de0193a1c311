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
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// The stack recipes below are the crash rigs every tool and test shares: the
// Trail driver, a plain standard disk, a RAID-5 array of standard disks, and
// the WAL+transaction database over Trail devices. Each Build call assembles
// a fresh rig; Recover reboots the most recent one (the drives survive the
// cut).

func exploreLogParams() disk.Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew = 4
	g.CylSkew = 8
	return disk.Params{
		Name:            "traillog",
		RPM:             6000,
		Geom:            g,
		SeekT2T:         800 * time.Microsecond,
		SeekAvg:         4 * time.Millisecond,
		SeekMax:         8 * time.Millisecond,
		HeadSwitch:      400 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   500 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

func exploreDataParams(name string) disk.Params {
	p := exploreLogParams()
	p.Name = name
	p.Geom = geom.Uniform(100, 2, 60)
	return p
}

// TrailStack is the core rig: one log disk, one data disk, the Trail driver.
// The audit reads raw media — recovery must have restored every logged
// sector to the data disk itself. scenario, when non-empty, attaches a fault
// plan (internal/fault DSL) to the data disk with the given seed; Trail must
// uphold the durability contract under those faults too.
func TrailStack(scenario string, faultSeed uint64) (crashexplore.Stack, error) {
	const (
		slots       = 8
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
	var log, data *disk.Disk
	var drv *trail.Driver
	return crashexplore.Stack{
		Slots: slots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			log = disk.New(env, exploreLogParams())
			if err := trail.Format(log); err != nil {
				return nil, err
			}
			data = disk.New(env, exploreDataParams("d"))
			if scenario != "" {
				fault.Attach(data, sim.NewRand(faultSeed), fcfg)
			}
			var err error
			drv, err = trail.NewDriver(env, log, []*disk.Disk{data}, trail.Config{})
			if err != nil {
				return nil, err
			}
			dev := drv.Dev(0)
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, sectorsPer)
				return dev.Write(p, int64(slot*slotSpacing), sectorsPer, buf)
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			log.Reattach(env2)
			data.Reattach(env2)
			id := blockdev.DevID{Major: 8, Minor: 0}
			devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.FIFO)}
			var rerr error
			env2.Go("recover", func(p *sim.Proc) {
				_, rerr = trail.Recover(p, log, devs, trail.RecoverOptions{})
			})
			env2.Run()
			if rerr != nil {
				return nil, rerr
			}
			return func(p *sim.Proc, slot int) (int, bool) {
				got := data.MediaRead(int64(slot*slotSpacing), sectorsPer)
				return crashexplore.ParseVersion(got, slot, sectorsPer)
			}, nil
		},
		Observe: func(reg *telemetry.Registry) {
			if drv != nil {
				drv.RegisterMetrics(reg)
			}
		},
		ObserveTimeline: func(a *timeline.Aggregator) {
			if drv != nil {
				drv.SetTimeline(a)
			}
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
		chunk       = 8
		slots       = 8
		slotSpacing = 64
	)
	var raw []*disk.Disk
	var memberDevs []*stddisk.Device
	var arr, arr2 *raid.Array
	return crashexplore.Stack{
		Slots: slots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			raw = nil
			memberDevs = nil
			var devs []blockdev.Device
			for i := 0; i < members; i++ {
				d := disk.New(env, raidMemberParams())
				raw = append(raw, d)
				id := blockdev.DevID{Major: 9, Minor: uint8(i)}
				sd := stddisk.New(env, d, id, sched.LOOK)
				memberDevs = append(memberDevs, sd)
				devs = append(devs, sd)
			}
			var err error
			arr, err = raid.New(devs, chunk)
			if err != nil {
				return nil, err
			}
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, 1)
				return arr.Write(p, int64(slot*slotSpacing), 1, buf)
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			// RAID has no recovery pass: reattach the members and assemble a
			// fresh array over them.
			var devs []blockdev.Device
			for i, d := range raw {
				d.Reattach(env2)
				id := blockdev.DevID{Major: 9, Minor: uint8(i)}
				devs = append(devs, stddisk.New(env2, d, id, sched.LOOK))
			}
			var err error
			arr2, err = raid.New(devs, chunk)
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
		Post: func(env2 *sim.Env) error {
			// The reassembled array accepts new writes.
			var werr error
			env2.Go("post", func(p *sim.Proc) {
				werr = arr2.Write(p, 4096, 1, crashexplore.Payload(0, 1, 1))
			})
			env2.Run()
			return werr
		},
		Observe: func(reg *telemetry.Registry) {
			if arr != nil {
				arr.RegisterMetrics(reg, "raid0")
			}
			for i, sd := range memberDevs {
				sd.RegisterMetrics(reg, fmt.Sprintf("r%d", i))
			}
		},
		ObserveTimeline: func(a *timeline.Aggregator) {
			if arr != nil {
				arr.SetTimeline(a, "raid0")
			}
			for i, sd := range memberDevs {
				sd.SetTimeline(a, fmt.Sprintf("r%d", i))
			}
		},
	}
}

// StdStack is the baseline rig: one standard disk behind a LOOK scheduler,
// no logging layer. Slots are single sectors — a plain disk acknowledges a
// write only after the media transfer completes, but multi-sector writes
// tear legitimately. It completes the four-way {trail, stddisk, raid5,
// wal} comparison the explorer and cmd/trailbench share.
func StdStack() crashexplore.Stack {
	const (
		slots       = 8
		slotSpacing = 64
	)
	var raw *disk.Disk
	var dev *stddisk.Device
	return crashexplore.Stack{
		Slots: slots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			raw = disk.New(env, exploreDataParams("std"))
			dev = stddisk.New(env, raw, blockdev.DevID{Major: 3, Minor: 0}, sched.LOOK)
			return func(p *sim.Proc, slot, version int) error {
				buf := crashexplore.Payload(slot, version, 1)
				return dev.Write(p, int64(slot*slotSpacing), 1, buf)
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			// No recovery pass: the platter is the whole durable state.
			raw.Reattach(env2)
			return func(p *sim.Proc, slot int) (int, bool) {
				got := raw.MediaRead(int64(slot*slotSpacing), 1)
				return crashexplore.ParseVersion(got, slot, 1)
			}, nil
		},
		Observe: func(reg *telemetry.Registry) {
			if dev != nil {
				dev.RegisterMetrics(reg, "disk0")
			}
		},
		ObserveTimeline: func(a *timeline.Aggregator) {
			if dev != nil {
				dev.SetTimeline(a, "disk0")
			}
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
// restores logged sectors, then the database replays its redo log.
func WALStack() crashexplore.Stack {
	const (
		slots      = 8
		cachePages = 32
	)
	var (
		logDisk    *disk.Disk
		phys       []*disk.Disk
		walSectors int64
		drv        *trail.Driver
		walLog     *wal.Log
		mgr        *txn.Manager
	)
	return crashexplore.Stack{
		Slots: slots,
		Build: func(env *sim.Env) (crashexplore.WriteFunc, error) {
			logDisk = disk.New(env, exploreLogParams())
			if err := trail.Format(logDisk); err != nil {
				return nil, err
			}
			// phys[0] holds the WAL, phys[1] the B-tree store.
			phys = []*disk.Disk{
				disk.New(env, exploreDataParams("waldev")),
				disk.New(env, exploreDataParams("treedev")),
			}

			// Create the (empty) tree durably before the run, via an instant
			// device, so recovery can reopen it by catalog.
			var buildErr error
			env.Go("load", func(p *sim.Proc) {
				inst := disk.NewInstantDev(phys[1], blockdev.DevID{Major: 3, Minor: 1})
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
				return nil, buildErr
			}

			var err error
			drv, err = trail.NewDriver(env, logDisk, phys, trail.Config{})
			if err != nil {
				return nil, err
			}
			walSectors = drv.Dev(0).Sectors()

			var tree *kvdb.Tree
			env.Go("open", func(p *sim.Proc) {
				walLog, err = wal.New(env, wal.Config{Dev: drv.Dev(0), Sectors: walSectors, Mode: wal.SyncEveryCommit})
				if err != nil {
					buildErr = err
					return
				}
				mgr = txn.NewManager(env, walLog)
				store, err := kvdb.Open(p, drv.Dev(1), cachePages)
				if err != nil {
					buildErr = err
					return
				}
				tree, buildErr = store.Tree(0)
			})
			env.Run()
			if buildErr != nil {
				return nil, buildErr
			}

			return func(p *sim.Proc, slot, version int) error {
				tx := mgr.Begin()
				key, val := walSlotKey(slot), walSlotValue(slot, version)
				if err := tx.Put(p, tree, 0, key, val, len(val), string(key)); err != nil {
					tx.Abort(p)
					return err
				}
				return tx.Commit(p)
			}, nil
		},
		Recover: func(env2 *sim.Env) (crashexplore.ReadFunc, error) {
			logDisk.Reattach(env2)
			devs := map[blockdev.DevID]blockdev.Device{}
			var stdDevs []blockdev.Device
			for i, d := range phys {
				d.Reattach(env2)
				id := blockdev.DevID{Major: 8, Minor: uint8(i)}
				sd := stddisk.New(env2, d, id, sched.LOOK)
				devs[id] = sd
				stdDevs = append(stdDevs, sd)
			}
			var tree *kvdb.Tree
			var rerr error
			env2.Go("recover", func(p *sim.Proc) {
				if _, err := trail.Recover(p, logDisk, devs, trail.RecoverOptions{}); err != nil {
					rerr = fmt.Errorf("trail recovery: %w", err)
					return
				}
				records, err := wal.ReadRecords(p, stdDevs[0], 0, walSectors)
				if err != nil {
					rerr = fmt.Errorf("wal scan: %w", err)
					return
				}
				store, err := kvdb.Open(p, stdDevs[1], cachePages)
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
		Observe: func(reg *telemetry.Registry) {
			if drv != nil {
				drv.RegisterMetrics(reg)
			}
			if walLog != nil {
				walLog.RegisterMetrics(reg)
			}
			if mgr != nil {
				mgr.RegisterMetrics(reg)
			}
		},
		ObserveTimeline: func(a *timeline.Aggregator) {
			if drv != nil {
				drv.SetTimeline(a)
			}
			if walLog != nil {
				walLog.SetTimeline(a, "wal0")
			}
		},
	}
}

// ByName returns the named stack recipe: "trail", "stddisk", "raid5", or
// "wal". scenario/faultSeed apply to the trail stack only.
func ByName(name, scenario string, faultSeed uint64) (crashexplore.Stack, error) {
	switch name {
	case "trail":
		return TrailStack(scenario, faultSeed)
	case "stddisk":
		if scenario != "" {
			return crashexplore.Stack{}, errors.New("crashexplore: fault scenarios are wired to the trail stack only")
		}
		return StdStack(), nil
	case "raid5":
		if scenario != "" {
			return crashexplore.Stack{}, errors.New("crashexplore: fault scenarios are wired to the trail stack only")
		}
		return RAID5Stack(), nil
	case "wal":
		if scenario != "" {
			return crashexplore.Stack{}, errors.New("crashexplore: fault scenarios are wired to the trail stack only")
		}
		return WALStack(), nil
	default:
		return crashexplore.Stack{}, fmt.Errorf("crashexplore: unknown stack %q (trail, stddisk, raid5, wal)", name)
	}
}
