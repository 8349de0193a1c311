package tpcc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tracklog/internal/sim"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// TPC-C defines consistency conditions (spec §3.3) that must hold after any
// mix of transactions. These tests run a workload and then audit the
// database.

// sumDistrictYTD returns sum(d_ytd) and per-district next order IDs.
func auditDistricts(p *sim.Proc, db *DB, w int) (ytd uint64, nextOIDs []int) {
	cfg := db.cfg
	for d := 1; d <= cfg.Districts; d++ {
		row, err := db.Tree(District).Get(p, dKey(nil, w, d))
		if err != nil {
			panic(fmt.Sprintf("district %d: %v", d, err))
		}
		ytd += uint64(getU32(row, 1))
		nextOIDs = append(nextOIDs, int(getU32(row, 0)))
	}
	return ytd, nextOIDs
}

func TestConsistencyWarehouseDistrictYTD(t *testing.T) {
	// Condition 2-ish: W_YTD = sum(D_YTD) for the warehouse, given both
	// start in the loader's fixed relationship and only Payment moves them
	// together.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	var beforeW, beforeD uint64
	r.env.Go("audit-before", func(p *sim.Proc) {
		row, _ := r.db.Tree(Warehouse).Get(p, wKey(nil, 1))
		beforeW = uint64(getU32(row, 0))
		beforeD, _ = auditDistricts(p, r.db, 1)
	})
	r.env.Run()

	if _, err := r.run.Run(r.env, RunConfig{Transactions: 80, Concurrency: 3, Seed: 31}); err != nil {
		t.Fatal(err)
	}

	r.env.Go("audit-after", func(p *sim.Proc) {
		row, _ := r.db.Tree(Warehouse).Get(p, wKey(nil, 1))
		afterW := uint64(getU32(row, 0))
		afterD, _ := auditDistricts(p, r.db, 1)
		// Payments add the same amount to the warehouse and to exactly one
		// district, so the deltas must match.
		if afterW-beforeW != afterD-beforeD {
			t.Errorf("warehouse YTD grew %d but districts grew %d", afterW-beforeW, afterD-beforeD)
		}
	})
	r.env.Run()
}

func TestConsistencyOrdersMatchDistrictCounters(t *testing.T) {
	// Condition 3-ish: for each district, every order ID below next_o_id
	// exists, and none at or above it does.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	if _, err := r.run.Run(r.env, RunConfig{Transactions: 80, Concurrency: 2, Seed: 33}); err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	r.env.Go("audit", func(p *sim.Proc) {
		for d := 1; d <= cfg.Districts; d++ {
			row, err := r.db.Tree(District).Get(p, dKey(nil, 1, d))
			if err != nil {
				t.Fatalf("district %d: %v", d, err)
			}
			nextOID := int(getU32(row, 0))
			for o := 1; o < nextOID; o++ {
				if _, err := r.db.Tree(Order).Get(p, oKey(nil, 1, d, o)); err != nil {
					t.Errorf("district %d: order %d missing (next_o_id %d)", d, o, nextOID)
				}
			}
			if _, err := r.db.Tree(Order).Get(p, oKey(nil, 1, d, nextOID)); err == nil {
				t.Errorf("district %d: order %d exists at next_o_id", d, nextOID)
			}
		}
	})
	r.env.Run()
}

func TestConsistencyOrderLinesMatchOrders(t *testing.T) {
	// Condition 5-ish: every order's ol_cnt order lines exist and no more.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	if _, err := r.run.Run(r.env, RunConfig{Transactions: 60, Concurrency: 2, Seed: 35}); err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	r.env.Go("audit", func(p *sim.Proc) {
		checked := 0
		for d := 1; d <= cfg.Districts; d++ {
			row, _ := r.db.Tree(District).Get(p, dKey(nil, 1, d))
			nextOID := int(getU32(row, 0))
			for o := 1; o < nextOID; o++ {
				oRow, err := r.db.Tree(Order).Get(p, oKey(nil, 1, d, o))
				if err != nil {
					continue
				}
				olCnt := int(getU32(oRow, 1))
				for l := 1; l <= olCnt; l++ {
					if _, err := r.db.Tree(OrderLine).Get(p, olKey(nil, 1, d, o, l)); err != nil {
						t.Errorf("order (%d,%d) missing line %d of %d", d, o, l, olCnt)
					}
				}
				if _, err := r.db.Tree(OrderLine).Get(p, olKey(nil, 1, d, o, olCnt+1)); err == nil {
					t.Errorf("order (%d,%d) has extra line beyond ol_cnt %d", d, o, olCnt)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Error("audit checked no orders")
		}
	})
	r.env.Run()
}

func TestConsistencyNewOrderQueueSubsetOfOrders(t *testing.T) {
	// Every new-order entry references an existing, undelivered order.
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	if _, err := r.run.Run(r.env, RunConfig{Transactions: 80, Concurrency: 2, Seed: 37}); err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	r.env.Go("audit", func(p *sim.Proc) {
		for d := 1; d <= cfg.Districts; d++ {
			prefix := noPrefix(nil, 1, d)
			r.db.Tree(NewOrder).Scan(p, prefix, func(k, v []byte) bool {
				if !bytes.HasPrefix(k, prefix) {
					return false
				}
				var oid int
				fmt.Sscanf(string(k[len(prefix):]), "%d", &oid)
				oRow, err := r.db.Tree(Order).Get(p, oKey(nil, 1, d, oid))
				if err != nil {
					t.Errorf("new-order (%d,%d) has no order row", d, oid)
					return true
				}
				if getU32(oRow, 2) != 0 {
					t.Errorf("new-order (%d,%d) already delivered (carrier %d)", d, oid, getU32(oRow, 2))
				}
				return true
			})
		}
	})
	r.env.Run()
}

func TestDeterministicRuns(t *testing.T) {
	// Identical rigs produce bit-identical results, checkpoints included: a
	// checkpoint's page writes block, so their order is part of the
	// virtual-time result. At concurrency 4 a commit wakes waiters on several
	// keys at one instant, and the order it wakes them in must not be Go's
	// map order: that case runs often enough to draw more than one order.
	//
	// The golden outcomes were recorded before the lock table's holders map
	// became a slice and rows, keys and redo records stopped being allocated
	// one by one (PR 23): a change to how txn or tpcc spend host memory moves
	// nothing here, the lock waits and the deadlock of the concurrency-4 case
	// included. The concurrency-4 outcome was re-recorded once when the page
	// cache stopped losing an edit made during the page's own write-back and
	// stopped exceeding its capacity while a fill is in flight (lock waits
	// 271 -> 260, flushes 282 -> 280). Both outcomes were re-recorded when
	// the log stopped writing an inode sector after each flush (internal/
	// fslite models that write) and the rig's checkpoints went from every 10
	// transactions to the programs' every 100: each run still crosses two.
	// The concurrency-4 outcome was re-recorded once more when each tree
	// took a latch for its operations (lock waits 312 -> 316, deadlocks
	// 1 -> 3, flushes 280 -> 283).
	type outcome struct {
		committed, aborted, flushes int64
		stats                       txn.Stats
		elapsed                     time.Duration
		tpmC                        float64
		sum, p50, p99, max          time.Duration
	}
	for _, tc := range []struct {
		concurrency, txns, runs int
		golden                  string
	}{
		{1, 300, 2, "{committed:300 aborted:0 flushes:269 stats:{Begun:300 Committed:300 Aborted:0 Deadlocks:0 LockWaits:0 LockWaitTime:0 CommitIOTime:1326736004} " +
			"elapsed:4416930381 tpmC:1779.51638853327 sum:3543083199 p50:11319441 p99:26847224 max:99499996}"},
		{2, 50, 2, ""},
		{4, 300, 10, "{committed:299 aborted:1 flushes:283 stats:{Begun:303 Committed:299 Aborted:4 Deadlocks:3 LockWaits:316 LockWaitTime:4755624739 CommitIOTime:2873722123} " +
			"elapsed:2731374890 tpmC:3009.4733718519324 sum:9980194048 p50:32083334 p99:108333331 max:139916659}"},
	} {
		run := func() outcome {
			r := newRig(t, wal.SyncEveryCommit)
			defer r.env.Close()
			res, err := r.run.Run(r.env, RunConfig{Transactions: tc.txns, Concurrency: tc.concurrency, Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Committed, res.Aborted, res.LogFlushes, r.m.Stats(), res.Elapsed, res.TpmC(), res.Response.Sum(),
				res.Response.Quantile(0.5), res.Response.Quantile(0.99), res.Response.Max()}
		}
		first := run()
		if tc.concurrency > 2 && first.stats.LockWaits == 0 {
			t.Errorf("concurrency %d: no lock waits, the case tests nothing", tc.concurrency)
		}
		if got := fmt.Sprintf("%+v", first); tc.golden != "" && got != tc.golden {
			t.Errorf("concurrency %d: outcome moved:\n got %s\nwant %s", tc.concurrency, got, tc.golden)
		}
		for i := 1; i < tc.runs; i++ {
			if again := run(); again != first {
				t.Fatalf("concurrency %d: run %d diverged:\n%+v\n%+v", tc.concurrency, i, first, again)
			}
		}
	}
}

// TestConcurrentTerminalsKeepTheTreesSound: on a 24-page cache every
// descent may wait for a page, under group commit several terminals are in
// their trees at once, and at concurrency 8 they split the order table's
// nodes under one another. Every table must pass Check after the run.
func TestConcurrentTerminalsKeepTheTreesSound(t *testing.T) {
	cfg := smallCfg()
	cfg.CachePages = 24
	for _, concurrency := range []int{1, 4, 8, 12} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("c%d/seed%d", concurrency, seed), func(t *testing.T) {
				r := newRigCfg(t, cfg, wal.GroupCommit)
				defer r.env.Close()
				if _, err := r.run.Run(r.env, RunConfig{Transactions: 600, Concurrency: concurrency, Seed: seed}); err != nil {
					t.Fatal(err)
				}
				r.env.Go("check", func(p *sim.Proc) {
					for tb := Warehouse; tb <= Stock; tb++ {
						if err := r.db.Tree(tb).Check(p); err != nil {
							t.Errorf("%v: %v", tb, err)
						}
					}
				})
				r.env.Run()
			})
		}
	}
}
