package tpcc

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/kvdb"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/trail"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// TestEndToEndCrashRecovery is the full-stack integrity test of the paper's
// system: TPC-C transactions run over Trail; power fails mid-run; the
// block-level Trail recovery restores every logged sector to the data
// disks; then the database's own redo recovery replays the write-ahead log
// onto the tables. Every transaction that committed (i.e. whose log flush
// Trail acknowledged) must be visible afterwards, and the TPC-C structural
// invariants must hold.
func TestEndToEndCrashRecovery(t *testing.T) {
	cfg := smallCfg()
	env := sim.NewEnv()

	// Hardware: Trail log disk + 3 data disks (0 = DB log file, 1-2 = tables).
	logDisk := disk.New(env, diskParams("traillog"))
	if err := trail.Format(logDisk); err != nil {
		t.Fatal(err)
	}
	var phys []*disk.Disk
	for i := 0; i < 3; i++ {
		phys = append(phys, disk.New(env, diskParams("phys")))
	}

	// Populate tables via instant devices.
	env.Go("load", func(p *sim.Proc) {
		inst := []blockdev.Device{
			disk.NewInstantDev(phys[1], blockdev.DevID{Major: 3, Minor: 1}),
			disk.NewInstantDev(phys[2], blockdev.DevID{Major: 3, Minor: 2}),
		}
		db, err := Load(p, cfg, inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.FlushAll(p); err != nil {
			t.Fatal(err)
		}
	})
	env.Run()

	// Assemble Trail + WAL + runner.
	drv, err := trail.NewDriver(env, logDisk, phys, trail.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var runner *Runner
	var initialNext []int
	walSectors := drv.Dev(0).Sectors()
	env.Go("open", func(p *sim.Proc) {
		db, err := Reopen(p, cfg, []blockdev.Device{drv.Dev(1), drv.Dev(2)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := wal.New(env, wal.Config{Dev: drv.Dev(0), Sectors: walSectors, Mode: wal.SyncEveryCommit})
		if err != nil {
			t.Fatal(err)
		}
		runner = NewRunner(db, txn.NewManager(env, l))
		for d := 1; d <= cfg.Districts; d++ {
			row, _ := db.Tree(District).Get(p, dKey(nil, 1, d))
			initialNext = append(initialNext, int(getU32(row, 0)))
		}
	})
	env.Run()

	// Run transactions, crashing mid-stream.
	committedNewOrders := 0
	rng := sim.NewRand(77)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; ; i++ {
			tt := pickType(rng)
			ok, err := runner.runOne(p, rng, tt)
			if err != nil {
				return // driver closed by the crash
			}
			if ok && tt == TxNewOrder {
				committedNewOrders++
			}
		}
	})
	env.RunUntil(sim.Time(2 * time.Second)) // mid-flight power cut
	env.Close()
	if committedNewOrders == 0 {
		t.Fatal("no new-orders committed before the crash")
	}

	// Reboot: block-level Trail recovery restores logged sectors.
	env2 := sim.NewEnv()
	defer env2.Close()
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
	env2.Go("block-recovery", func(p *sim.Proc) {
		rep, err := trail.Recover(p, logDisk, devs, trail.RecoverOptions{})
		if err != nil {
			t.Fatalf("trail recovery: %v", err)
		}
		if rep.Clean {
			t.Error("crashed system reported clean")
		}
	})
	env2.Run()

	// Database-level redo: scan the WAL and replay onto the tables.
	env2.Go("db-recovery", func(p *sim.Proc) {
		records, err := wal.ReadRecords(p, stdDevs[0], 0, walSectors)
		if err != nil {
			t.Fatalf("wal scan: %v", err)
		}
		if len(records) == 0 {
			t.Fatal("no redo records recovered")
		}
		db, err := Reopen(p, cfg, []blockdev.Device{stdDevs[1], stdDevs[2]})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		applied, err := txn.RecoverDB(p, records, func(tag uint16) *kvdb.Tree {
			return db.Tree(Table(tag))
		})
		if err != nil {
			t.Fatalf("redo: %v", err)
		}
		if applied != len(records) {
			t.Errorf("applied %d of %d records", applied, len(records))
		}

		// Audit: committed new-orders are all visible.
		totalNew := 0
		for d := 1; d <= cfg.Districts; d++ {
			row, err := db.Tree(District).Get(p, dKey(nil, 1, d))
			if err != nil {
				t.Fatalf("district %d: %v", d, err)
			}
			nextOID := int(getU32(row, 0))
			totalNew += nextOID - initialNext[d-1]
			// Structural invariant: every order below next_o_id exists
			// with all of its lines.
			for o := initialNext[d-1]; o < nextOID; o++ {
				oRow, err := db.Tree(Order).Get(p, oKey(nil, 1, d, o))
				if err != nil {
					t.Errorf("district %d order %d missing after recovery", d, o)
					continue
				}
				olCnt := int(getU32(oRow, 1))
				for l := 1; l <= olCnt; l++ {
					if _, err := db.Tree(OrderLine).Get(p, olKey(nil, 1, d, o, l)); err != nil {
						t.Errorf("order (%d,%d) missing line %d after recovery", d, o, l)
					}
				}
			}
		}
		// Every acknowledged commit is present; in-flight commits whose
		// flush completed may add a few more.
		if totalNew < committedNewOrders {
			t.Errorf("recovered %d new-orders < %d acknowledged commits", totalNew, committedNewOrders)
		}
	})
	env2.Run()
}
