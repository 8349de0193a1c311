package tpcc

import (
	"errors"
	"runtime"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// TPC-C's rungs of the per-layer benchmark ladder (ROADMAP): the host cost
// of one transaction of the type that dominates the mix and of the one that
// reads the most rows, on devices that take no virtual time — keys, rows,
// locks, redo records and tree operations, with no disk behind them. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/tpcc

// instantDev is a device that takes no virtual time.
func instantDev(env *sim.Env, minor uint8) blockdev.Device {
	return disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3, Minor: minor})
}

// benchRunner is a loaded database and a runner on instant devices.
func benchRunner(b testing.TB) (*sim.Env, *Runner) {
	env := sim.NewEnv()
	b.Cleanup(env.Close)
	cfg := smallCfg()
	cfg.CustomersPerDistrict, cfg.Items, cfg.InitialOrdersPerDistrict, cfg.CachePages = 300, 2000, 100, 1<<15
	var run *Runner
	var err error
	env.Go("load", func(p *sim.Proc) {
		var db *DB
		if db, err = Load(p, cfg, []blockdev.Device{instantDev(env, 1), instantDev(env, 2)}); err != nil {
			return
		}
		var l *wal.Log
		logDev := instantDev(env, 0)
		if l, err = wal.New(env, wal.Config{Dev: logDev, Sectors: logDev.Sectors(), Mode: wal.SyncEveryCommit}); err == nil {
			run = NewRunner(db, txn.NewManager(env, l))
		}
	})
	env.Run()
	if err != nil {
		b.Fatal(err)
	}
	return env, run
}

func benchTransaction(b *testing.B, one func(r *Runner, p *sim.Proc, rng *sim.Rand) error) {
	env, r := benchRunner(b)
	rng := sim.NewRand(5)
	env.Go("terminal", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := one(r, p, rng); err != nil && !errors.Is(err, errRollback) {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkNewOrder(b *testing.B)   { benchTransaction(b, (*Runner).newOrder) }
func BenchmarkStockLevel(b *testing.B) { benchTransaction(b, (*Runner).stockLevel) }

// loadCfg is the database of the tpcc_trail benchmark workload: 1 warehouse,
// 10 districts, 600 customers a district, 10 000 items, 300 orders a
// district and 700 cache pages a store.
var loadCfg = Config{
	Warehouses:               1,
	Districts:                10,
	CustomersPerDistrict:     600,
	Items:                    10000,
	InitialOrdersPerDistrict: 300,
	CachePages:               700,
	Seed:                     2,
}

// smokeCfg is loadCfg at the workload's smoke size: 60 customers a
// district, 1 000 items, 30 orders a district and 70 cache pages a store.
var smokeCfg = Config{
	Warehouses:               1,
	Districts:                10,
	CustomersPerDistrict:     60,
	Items:                    1000,
	InitialOrdersPerDistrict: 30,
	CachePages:               70,
	Seed:                     2,
}

// loadOnce loads and flushes loadCfg's database on instant devices, in a
// world of its own.
func loadOnce() error {
	env := sim.NewEnv()
	defer env.Close()
	var err error
	env.Go("load", func(p *sim.Proc) {
		var db *DB
		if db, err = Load(p, loadCfg, []blockdev.Device{instantDev(env, 1), instantDev(env, 2)}); err == nil {
			err = db.FlushAll(p)
		}
	})
	env.Run()
	return err
}

// BenchmarkLoad is the tpcc_trail workload's set-up cost, nearly all of it
// kvdb.Tree.Put.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := loadOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadAllocations holds BenchmarkLoad's load to at most 10 % above the
// 11 746 allocations it made while only internal nodes kept offset tables.
// Every node keeping one costs one full-size array a cache frame, 12 760
// allocations; tables grown by append from empty made 18 093.
func TestLoadAllocations(t *testing.T) {
	var err error
	got := testing.AllocsPerRun(1, func() { err = loadOnce() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations", got)
	if got > 11_746*1.10 {
		t.Errorf("the load allocates %.0f times, want at most %.0f", got, 11_746*1.10)
	}
}

// TestTrailRunAllocations pins what a transaction allocates end to end on a
// rig-built Trail stack, with the database and caches of the tpcc_trail
// benchmark workload at its smoke size (~11 evictions a transaction): the
// Txn, a Page a miss, new media sectors and little else, because staged
// chunks and evicted frames' data are recycled: 13.76 allocations and
// ~32 200 B a transaction, bounded here with ~25 % headroom. Before they were
// recycled, this run allocated 29.56 times and 95 788 B a transaction.
func TestTrailRunAllocations(t *testing.T) {
	r, runner, err := Deploy(rig.Config{}, smokeCfg, wal.Config{Mode: wal.SyncEveryCommit, BufferBytes: 50 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := runner.Run(r.Env, RunConfig{Transactions: 100, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	const txns = 300
	evictions := func() (n int64) {
		for _, st := range runner.db.Stores() {
			n += st.Cache().Stats().Evictions
		}
		return n
	}
	evicted := evictions()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := runner.Run(r.Env, RunConfig{Transactions: txns, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / txns
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / txns
	t.Logf("per transaction: %.2f allocations, %.0f B; %d evictions", allocs, bytes, evictions()-evicted)
	if evictions() == evicted {
		t.Fatal("no page was evicted: the run does not exercise frame reuse")
	}
	if allocs > 17 || bytes > 40_000 {
		t.Errorf("a transaction allocates %.2f times and %.0f B, want at most 17 and 40 000 B", allocs, bytes)
	}
}

// TestTransactionAllocations pins what a new-order and a stock-level
// transaction allocate on a warm cache: the Txn and little else. Neither a
// key, a row nor a lock name reaches the heap.
func TestTransactionAllocations(t *testing.T) {
	env, r := benchRunner(t)
	rng := sim.NewRand(5)
	env.Go("terminal", func(p *sim.Proc) {
		for _, c := range []struct {
			name string
			max  float64
			one  func(r *Runner, p *sim.Proc, rng *sim.Rand) error
		}{
			{"newOrder", 3, (*Runner).newOrder},
			{"stockLevel", 2, (*Runner).stockLevel},
		} {
			var err error
			got := testing.AllocsPerRun(200, func() {
				if e := c.one(r, p, rng); e != nil && !errors.Is(e, errRollback) {
					err = e
				}
			})
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			} else if got > c.max {
				t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
			}
		}
	})
	env.Run()
}
