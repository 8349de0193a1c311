package tpcc

import (
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/kvdb"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// smallCfg is a scaled-down database for fast tests.
func smallCfg() Config {
	return Config{
		Warehouses:               1,
		Districts:                3,
		CustomersPerDistrict:     20,
		Items:                    50,
		InitialOrdersPerDistrict: 10,
		CachePages:               2000,
		Seed:                     42,
	}
}

func diskParams(name string) disk.Params {
	return disk.Params{
		Name:            name,
		RPM:             7200,
		Geom:            geom.Uniform(3000, 4, 120),
		SeekT2T:         time.Millisecond,
		SeekAvg:         6 * time.Millisecond,
		SeekMax:         12 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	}
}

// testRig is a loaded database with a transaction manager over timed disks.
type testRig struct {
	env *sim.Env
	db  *DB
	m   *txn.Manager
	run *Runner
}

func newRig(t *testing.T, mode wal.Mode) *testRig {
	t.Helper()
	return newRigCfg(t, smallCfg(), mode)
}

// newRigCfg is newRig over the database cfg describes.
func newRigCfg(t *testing.T, cfg Config, mode wal.Mode) *testRig {
	t.Helper()
	env := sim.NewEnv()
	d1 := disk.New(env, diskParams("data1"))
	d2 := disk.New(env, diskParams("data2"))
	logd := disk.New(env, diskParams("walog"))

	// Populate through instant devices (setup, not measured)...
	var db *DB
	env.Go("load", func(p *sim.Proc) {
		inst := []blockdev.Device{
			disk.NewInstantDev(d1, blockdev.DevID{Major: 3, Minor: 0}),
			disk.NewInstantDev(d2, blockdev.DevID{Major: 3, Minor: 1}),
		}
		loaded, err := Load(p, cfg, inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.FlushAll(p); err != nil {
			t.Fatal(err)
		}
	})
	env.Run()

	// ...then reopen on timed devices for the measured run.
	var m *txn.Manager
	env.Go("open", func(p *sim.Proc) {
		timed := []blockdev.Device{
			stddisk.New(env, d1, blockdev.DevID{Major: 3, Minor: 0}, sched.LOOK),
			stddisk.New(env, d2, blockdev.DevID{Major: 3, Minor: 1}, sched.LOOK),
		}
		var err error
		db, err = Reopen(p, cfg, timed)
		if err != nil {
			t.Fatal(err)
		}
		logDev := stddisk.New(env, logd, blockdev.DevID{Major: 3, Minor: 2}, sched.LOOK)
		l, err := wal.New(env, wal.Config{Dev: logDev, Sectors: logDev.Sectors(), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		m = txn.NewManager(env, l)
	})
	env.Run()
	return &testRig{env: env, db: db, m: m, run: NewRunner(db, m)}
}

func TestLoadPopulatesTables(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	cfg := smallCfg()
	r.env.Go("check", func(p *sim.Proc) {
		if _, err := r.db.Tree(Warehouse).Get(p, wKey(nil, 1)); err != nil {
			t.Errorf("warehouse missing: %v", err)
		}
		for d := 1; d <= cfg.Districts; d++ {
			row, err := r.db.Tree(District).Get(p, dKey(nil, 1, d))
			if err != nil {
				t.Fatalf("district %d: %v", d, err)
			}
			if got := int(getU32(row, 0)); got != cfg.InitialOrdersPerDistrict+1 {
				t.Errorf("district %d nextOID = %d", d, got)
			}
		}
		if _, err := r.db.Tree(Customer).Get(p, cKey(nil, 1, 2, cfg.CustomersPerDistrict)); err != nil {
			t.Errorf("last customer missing: %v", err)
		}
		if _, err := r.db.Tree(Item).Get(p, iKey(nil, cfg.Items)); err != nil {
			t.Errorf("last item missing: %v", err)
		}
		if _, err := r.db.Tree(Stock).Get(p, sKey(nil, 1, 1)); err != nil {
			t.Errorf("stock missing: %v", err)
		}
		// Undelivered orders exist in the new-order queue.
		found := false
		r.db.Tree(NewOrder).Scan(p, noPrefix(nil, 1, 1), func(k, v []byte) bool {
			found = true
			return false
		})
		if !found {
			t.Error("no undelivered orders populated")
		}
	})
	r.env.Run()
}

func TestNewOrderAdvancesDistrict(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("tx", func(p *sim.Proc) {
		rng := sim.NewRand(7)
		beforeRows := map[int]int{}
		for d := 1; d <= smallCfg().Districts; d++ {
			row, _ := r.db.Tree(District).Get(p, dKey(nil, 1, d))
			beforeRows[d] = int(getU32(row, 0))
		}
		for i := 0; i < 5; i++ {
			if err := r.run.newOrder(p, rng); err != nil && !errors.Is(err, errRollback) {
				t.Fatalf("new order: %v", err)
			}
		}
		total := 0
		for d := 1; d <= smallCfg().Districts; d++ {
			row, _ := r.db.Tree(District).Get(p, dKey(nil, 1, d))
			total += int(getU32(row, 0)) - beforeRows[d]
		}
		if total == 0 {
			t.Error("no district order counter advanced")
		}
	})
	r.env.Run()
}

func TestPaymentUpdatesBalances(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("tx", func(p *sim.Proc) {
		before, _ := r.db.Tree(Warehouse).Get(p, wKey(nil, 1))
		rng := sim.NewRand(11)
		if err := r.run.payment(p, rng); err != nil {
			t.Fatalf("payment: %v", err)
		}
		after, _ := r.db.Tree(Warehouse).Get(p, wKey(nil, 1))
		if getU32(after, 0) <= getU32(before, 0) {
			t.Error("warehouse YTD did not grow")
		}
	})
	r.env.Run()
}

func TestDeliveryDrainsQueue(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("tx", func(p *sim.Proc) {
		count := func() int {
			n := 0
			r.db.Tree(NewOrder).Scan(p, noPrefix(nil, 1, 1), func(k, v []byte) bool {
				if string(k[:8]) != string(noPrefix(nil, 1, 1)[:8]) {
					return false
				}
				n++
				return true
			})
			return n
		}
		before := count()
		rng := sim.NewRand(13)
		if err := r.run.delivery(p, rng); err != nil {
			t.Fatalf("delivery: %v", err)
		}
		if after := count(); after >= before {
			t.Errorf("new-order queue %d -> %d, want shrink", before, after)
		}
	})
	r.env.Run()
}

func TestRunMixedWorkload(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	res, err := r.run.Run(r.env, RunConfig{Transactions: 60, Concurrency: 2, Warmup: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 50 {
		t.Errorf("committed = %d of 60", res.Committed)
	}
	if res.Response.Count() != 60 {
		t.Errorf("response samples = %d", res.Response.Count())
	}
	if res.TpmC() <= 0 {
		t.Error("zero tpmC")
	}
	if res.LogIOTime <= 0 || res.LogFlushes <= 0 {
		t.Errorf("log stats: io=%v flushes=%d", res.LogIOTime, res.LogFlushes)
	}
	if res.LogBytes <= 0 {
		t.Error("no log volume")
	}
}

func TestGroupCommitReducesFlushes(t *testing.T) {
	sync := newRig(t, wal.SyncEveryCommit)
	defer sync.env.Close()
	syncRes, err := sync.run.Run(sync.env, RunConfig{Transactions: 40, Concurrency: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gc := newRig(t, wal.GroupCommit)
	defer gc.env.Close()
	gcRes, err := gc.run.Run(gc.env, RunConfig{Transactions: 40, Concurrency: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if gcRes.LogFlushes >= syncRes.LogFlushes {
		t.Errorf("flushes: gc=%d sync=%d", gcRes.LogFlushes, syncRes.LogFlushes)
	}
}

func TestLogVolumePerTransaction(t *testing.T) {
	// Table 3's arithmetic implies ~4.5 KB of log per transaction at spec
	// scale. At test scale the mix differs slightly; just sanity-check the
	// order of magnitude.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	res, err := r.run.Run(r.env, RunConfig{Transactions: 50, Concurrency: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	perTxn := float64(res.LogBytes) / float64(res.Committed)
	if perTxn < 500 || perTxn > 20000 {
		t.Errorf("log volume per txn = %.0f bytes", perTxn)
	}
}

func TestReopenSharesNothingWithLoad(t *testing.T) {
	// Reopen must find the same trees by placement order.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("check", func(p *sim.Proc) {
		// Item lives on store 0, customer on store 1.
		if _, err := r.db.Tree(Item).Get(p, iKey(nil, 1)); err != nil {
			t.Errorf("item tree misplaced: %v", err)
		}
		if _, err := r.db.Tree(Customer).Get(p, cKey(nil, 1, 1, 1)); err != nil {
			t.Errorf("customer tree misplaced: %v", err)
		}
	})
	r.env.Run()
}

func TestTableLogicalSizes(t *testing.T) {
	// Spot-check the spec widths driving page/log accounting.
	if Customer.logicalSize() != 655 || Stock.logicalSize() != 306 || OrderLine.logicalSize() != 54 {
		t.Error("spec widths wrong")
	}
	for tb := Table(1); int(tb) <= numTables; tb++ {
		if tb.logicalSize() <= 0 || tb.String() == "" {
			t.Errorf("table %d incomplete", tb)
		}
	}
}

func TestStockLevelAndOrderStatusRun(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("tx", func(p *sim.Proc) {
		rng := sim.NewRand(21)
		if err := r.run.orderStatus(p, rng); err != nil {
			t.Errorf("order status: %v", err)
		}
		if err := r.run.stockLevel(p, rng); err != nil {
			t.Errorf("stock level: %v", err)
		}
	})
	r.env.Run()
}

var _ = kvdb.ErrNotFound // keep import for future assertions
