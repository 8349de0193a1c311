package tpcc

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// TxType is one of the five TPC-C transactions.
type TxType int

// The transaction types, with their standard mix percentages.
const (
	TxNewOrder TxType = iota + 1
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "new-order"
	case TxPayment:
		return "payment"
	case TxOrderStatus:
		return "order-status"
	case TxDelivery:
		return "delivery"
	case TxStockLevel:
		return "stock-level"
	default:
		return fmt.Sprintf("tx(%d)", int(t))
	}
}

// pickType draws a type from the standard mix (45/43/4/4/4).
func pickType(rng *sim.Rand) TxType {
	v := rng.Intn(100)
	switch {
	case v < 45:
		return TxNewOrder
	case v < 88:
		return TxPayment
	case v < 92:
		return TxOrderStatus
	case v < 96:
		return TxDelivery
	default:
		return TxStockLevel
	}
}

// cpuCost returns the per-transaction CPU time, calibrated for the paper's
// 300 MHz Pentium II ("the CPU time each transaction requires is much
// smaller than the disk I/O delay").
func cpuCost(t TxType) time.Duration {
	switch t {
	case TxNewOrder:
		return 9 * time.Millisecond
	case TxPayment:
		return 4 * time.Millisecond
	case TxOrderStatus:
		return 4 * time.Millisecond
	case TxDelivery:
		return 12 * time.Millisecond
	case TxStockLevel:
		return 6 * time.Millisecond
	default:
		return 5 * time.Millisecond
	}
}

// RunConfig describes one measured TPC-C run.
type RunConfig struct {
	// Transactions is the measured transaction count (Table 2: 5000;
	// Table 3: 10000).
	Transactions int
	// Concurrency is the number of terminal processes (Table 2: 1;
	// Table 3: 4).
	Concurrency int
	// Warmup transactions run before measurement to fill caches (the paper
	// uses 200,000 on a 300 MB cache; scale to the configured cache).
	Warmup int
	// Seed drives the transaction mix.
	Seed uint64
	// CheckpointEvery flushes all dirty pages to the table disks every N
	// transactions (Berkeley DB's periodic checkpoint; 0 = every 100).
	// Under the baseline these are in-place synchronous writes; under
	// Trail they ride the log disk, which is the point of the comparison.
	CheckpointEvery int
}

// Result reports the paper's Table 2/3 metrics.
type Result struct {
	Committed, Aborted int64
	NewOrders          int64
	// Elapsed is the measured-phase virtual time.
	Elapsed time.Duration
	// Response summarizes per-transaction response times, from a
	// transaction's first statement to its commit (to durability under
	// group commit).
	Response *telemetry.Summary
	// CheckpointTime is the time spent in the checkpoints (FlushAll every
	// CheckpointEvery transactions) that a terminal runs before a measured
	// transaction: the terminal's user waits for it too. At concurrency 1
	// under SyncEveryCommit, Response.Sum() + CheckpointTime == Elapsed.
	CheckpointTime time.Duration
	// LogIOTime is the log-disk I/O time attributable to the measured
	// phase (Table 2's "Disk I/O Time for Logging").
	LogIOTime time.Duration
	// LogFlushes counts synchronous log writes (Table 3's group commits).
	LogFlushes int64
	// LogBytes is the log volume appended.
	LogBytes int64
}

// TpmC returns new-order transactions per minute of virtual time.
func (r *Result) TpmC() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.NewOrders) / r.Elapsed.Minutes()
}

// Runner executes TPC-C transactions against a DB through a transaction
// manager.
type Runner struct {
	db  *DB
	m   *txn.Manager
	cfg RunConfig
}

// NewRunner pairs a database with a transaction manager.
func NewRunner(db *DB, m *txn.Manager) *Runner {
	return &Runner{db: db, m: m}
}

// Run executes cfg.Warmup + cfg.Transactions transactions on env and
// returns metrics for the measured phase. env must be otherwise idle; the
// call drives it to completion.
func (r *Runner) Run(env *sim.Env, cfg RunConfig) (*Result, error) {
	if cfg.Transactions <= 0 {
		return nil, errors.New("tpcc: no transactions to run")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 100
	}
	r.cfg = cfg

	res := &Result{Response: telemetry.NewSummary()}
	var issued int
	var measuring bool
	var startLogStats wal.Stats
	var measureStart sim.Time
	var failure error

	total := cfg.Warmup + cfg.Transactions
	for i := 0; i < cfg.Concurrency; i++ {
		rng := sim.NewRand(cfg.Seed + 100 + uint64(i)*104729)
		env.Go(fmt.Sprintf("terminal-%d", i), func(p *sim.Proc) {
			for issued < total && failure == nil {
				n := issued
				issued++
				measured := n >= cfg.Warmup
				if measured && !measuring {
					measuring = true
					measureStart = p.Now()
					startLogStats = r.m.Log().Stats()
				}
				if cfg.CheckpointEvery > 0 && n > 0 && n%cfg.CheckpointEvery == 0 {
					cp := p.Now()
					if err := r.db.FlushAll(p); err != nil {
						failure = err
						return
					}
					if measured {
						res.CheckpointTime += p.Now().Sub(cp)
					}
				}
				t := pickType(rng)
				start := p.Now()
				committed, err := r.runOne(p, rng, t)
				if err != nil {
					failure = err
					return
				}
				if !measured {
					continue
				}
				if committed && r.m.Log().Mode() == wal.GroupCommit {
					// Under group commit a transaction's records become
					// durable only at a later forced flush; the paper's
					// response time runs to that point ("each transaction
					// has to delay its commit time to the point when a
					// batch of transactions complete"). The terminal
					// proceeds; a watcher records durability.
					lsn := r.m.Log().NextLSN()
					env.Go("durability-watch", func(w *sim.Proc) {
						r.m.Log().WaitDurable(w, lsn)
						res.Response.Add(w.Now().Sub(start))
					})
				} else {
					res.Response.Add(p.Now().Sub(start))
				}
				if committed {
					res.Committed++
					if t == TxNewOrder {
						res.NewOrders++
					}
				} else {
					res.Aborted++
				}
				res.Elapsed = p.Now().Sub(measureStart)
			}
		})
	}
	env.Run()
	if failure != nil {
		return nil, failure
	}
	// Force the residual log tail so durability watchers complete (a real
	// run ends with a checkpoint).
	var flushErr error
	env.Go("final-flush", func(p *sim.Proc) { flushErr = r.m.Log().Flush(p) })
	env.Run()
	if flushErr != nil {
		return nil, flushErr
	}
	end := r.m.Log().Stats()
	res.LogIOTime = end.IOTime - startLogStats.IOTime
	res.LogFlushes = end.Flushes - startLogStats.Flushes
	res.LogBytes = end.AppendedBytes - startLogStats.AppendedBytes
	return res, nil
}

// runOne executes one transaction with deadlock retries; it reports whether
// the transaction ultimately committed. Intentional rollbacks (the 1%
// new-order bad item) and deadlock-victim exhaustion report false.
func (r *Runner) runOne(p *sim.Proc, rng *sim.Rand, t TxType) (bool, error) {
	const maxRetries = 4
	for attempt := 0; ; attempt++ {
		err := r.execute(p, rng, t)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, errRollback):
			return false, nil
		case errors.Is(err, txn.ErrDeadlock):
			if attempt >= maxRetries {
				return false, nil
			}
			p.Sleep(time.Duration(rng.IntRange(1, 5)) * time.Millisecond)
		default:
			return false, err
		}
	}
}

// errRollback marks the spec-mandated 1% new-order rollback.
var errRollback = errors.New("tpcc: intentional rollback")

func (r *Runner) execute(p *sim.Proc, rng *sim.Rand, t TxType) error {
	cpu := cpuCost(t)
	p.Sleep(cpu / 2)
	defer p.Sleep(cpu / 2)
	switch t {
	case TxNewOrder:
		return r.newOrder(p, rng)
	case TxPayment:
		return r.payment(p, rng)
	case TxOrderStatus:
		return r.orderStatus(p, rng)
	case TxDelivery:
		return r.delivery(p, rng)
	case TxStockLevel:
		return r.stockLevel(p, rng)
	default:
		return fmt.Errorf("tpcc: unknown type %v", t)
	}
}

// get, getForUpdate, put and del run one row operation of tx on table t. A
// row's lock is named by its key; neither the name nor the key outlives the
// call (txn copies the key into its redo record and the name into its
// fixed-width lock table key), so both stay on the caller's stack. A row read
// is valid until tx's next read.

func (r *Runner) get(p *sim.Proc, tx *txn.Txn, t Table, key []byte) ([]byte, error) {
	return tx.Get(p, r.db.trees[t], uint16(t), key, string(key))
}

func (r *Runner) getForUpdate(p *sim.Proc, tx *txn.Txn, t Table, key []byte) ([]byte, error) {
	return tx.GetForUpdate(p, r.db.trees[t], uint16(t), key, string(key))
}

func (r *Runner) put(p *sim.Proc, tx *txn.Txn, t Table, key, row []byte, logical int) error {
	return tx.Put(p, r.db.trees[t], uint16(t), key, row, logical, string(key))
}

func (r *Runner) del(p *sim.Proc, tx *txn.Txn, t Table, key []byte) error {
	return tx.Delete(p, r.db.trees[t], uint16(t), key, string(key))
}

// newOrder implements TPC-C §2.4.
func (r *Runner) newOrder(p *sim.Proc, rng *sim.Rand) error {
	cfg := r.db.cfg
	w := rng.IntRange(1, cfg.Warehouses)
	d := rng.IntRange(1, cfg.Districts)
	c := rng.NURand(1023, 1, cfg.CustomersPerDistrict)
	tx := r.m.Begin()
	var kb, rb scratch

	if _, err := r.get(p, tx, Warehouse, wKey(kb[:0], w)); err != nil {
		return r.fail(p, tx, err)
	}
	dk := dKey(kb[:0], w, d)
	dRow, err := r.getForUpdate(p, tx, District, dk)
	if err != nil {
		return r.fail(p, tx, err)
	}
	oID := int(getU32(dRow, 0))
	if err := r.put(p, tx, District, dk,
		districtRow(rb[:0], uint32(oID+1), getU32(dRow, 1), getU32(dRow, 2)), District.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	if _, err := r.get(p, tx, Customer, cKey(kb[:0], w, d, c)); err != nil {
		return r.fail(p, tx, err)
	}

	olCnt := rng.IntRange(5, 15)
	rollback := rng.Intn(100) == 0 // 1% unused item id per spec
	total := uint32(0)
	for l := 1; l <= olCnt; l++ {
		item := rng.NURand(8191, 1, cfg.Items)
		if rollback && l == olCnt {
			tx.Abort(p)
			return errRollback
		}
		iRow, err := r.get(p, tx, Item, iKey(kb[:0], item))
		if err != nil {
			return r.fail(p, tx, err)
		}
		price := getU32(iRow, 0)
		sk := sKey(kb[:0], w, item)
		sRow, err := r.getForUpdate(p, tx, Stock, sk)
		if err != nil {
			return r.fail(p, tx, err)
		}
		qty := getU32(sRow, 0)
		orderQty := uint32(rng.IntRange(1, 10))
		if qty >= orderQty+10 {
			qty -= orderQty
		} else {
			qty = qty - orderQty + 91
		}
		if err := r.put(p, tx, Stock, sk,
			stockRow(rb[:0], qty, getU32(sRow, 1)+orderQty, getU32(sRow, 2)+1, getU32(sRow, 3)), Stock.logicalSize()); err != nil {
			return r.fail(p, tx, err)
		}
		amount := orderQty * price
		total += amount
		if err := r.put(p, tx, OrderLine, olKey(kb[:0], w, d, oID, l),
			orderLineRow(rb[:0], uint32(item), orderQty, amount, 0), OrderLine.logicalSize()); err != nil {
			return r.fail(p, tx, err)
		}
	}
	if err := r.put(p, tx, Order, oKey(kb[:0], w, d, oID),
		orderRow(rb[:0], uint32(c), uint32(olCnt), 0, 0), Order.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	if err := r.put(p, tx, Order, ocKey(kb[:0], w, d, c, oID), []byte{1}, 8); err != nil {
		return r.fail(p, tx, err)
	}
	if err := r.put(p, tx, NewOrder, noKey(kb[:0], w, d, oID), []byte{1}, NewOrder.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	return tx.Commit(p)
}

// payment implements TPC-C §2.5.
func (r *Runner) payment(p *sim.Proc, rng *sim.Rand) error {
	cfg := r.db.cfg
	w := rng.IntRange(1, cfg.Warehouses)
	d := rng.IntRange(1, cfg.Districts)
	c := rng.NURand(1023, 1, cfg.CustomersPerDistrict)
	amount := uint32(rng.IntRange(100, 500000))
	tx := r.m.Begin()
	var kb, rb scratch

	wk := wKey(kb[:0], w)
	wRow, err := r.getForUpdate(p, tx, Warehouse, wk)
	if err != nil {
		return r.fail(p, tx, err)
	}
	if err := r.put(p, tx, Warehouse, wk,
		warehouseRow(rb[:0], getU32(wRow, 0)+amount, getU32(wRow, 1)), Warehouse.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	dk := dKey(kb[:0], w, d)
	dRow, err := r.getForUpdate(p, tx, District, dk)
	if err != nil {
		return r.fail(p, tx, err)
	}
	if err := r.put(p, tx, District, dk,
		districtRow(rb[:0], getU32(dRow, 0), getU32(dRow, 1)+amount, getU32(dRow, 2)), District.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	ck := cKey(kb[:0], w, d, c)
	cRow, err := r.getForUpdate(p, tx, Customer, ck)
	if err != nil {
		return r.fail(p, tx, err)
	}
	bal := customerBalance(cRow) - int64(amount)
	if err := r.put(p, tx, Customer, ck,
		customerRow(rb[:0], bal, getU32(cRow, 1)+amount, getU32(cRow, 2)+1, getU32(cRow, 3), getU32(cRow, 4)),
		Customer.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	r.db.hSeq++
	if err := r.put(p, tx, History, hKey(kb[:0], w, r.db.hSeq),
		historyRow(rb[:0], uint32(c), amount), History.logicalSize()); err != nil {
		return r.fail(p, tx, err)
	}
	return tx.Commit(p)
}

// orderStatus implements TPC-C §2.6: read the customer's latest order and
// its lines.
func (r *Runner) orderStatus(p *sim.Proc, rng *sim.Rand) error {
	cfg := r.db.cfg
	w := rng.IntRange(1, cfg.Warehouses)
	d := rng.IntRange(1, cfg.Districts)
	c := rng.NURand(1023, 1, cfg.CustomersPerDistrict)
	tx := r.m.Begin()
	var kb, pb scratch

	if _, err := r.get(p, tx, Customer, cKey(kb[:0], w, d, c)); err != nil {
		return r.fail(p, tx, err)
	}
	// Latest order via the customer-order index.
	prefix := ocPrefix(pb[:0], w, d, c)
	lastOID := -1
	err := r.db.trees[Order].Scan(p, prefix, func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return false
		}
		if o, ok := keySuffix(k, prefix); ok {
			lastOID = o
		}
		return true
	})
	if err != nil {
		return r.fail(p, tx, err)
	}
	if lastOID >= 0 {
		oRow, err := r.get(p, tx, Order, oKey(kb[:0], w, d, lastOID))
		if err == nil {
			olCnt := int(getU32(oRow, 1))
			for l := 1; l <= olCnt; l++ {
				if _, err := r.get(p, tx, OrderLine, olKey(kb[:0], w, d, lastOID, l)); err != nil && !errors.Is(err, kvdb.ErrNotFound) {
					return r.fail(p, tx, err)
				}
			}
		} else if !errors.Is(err, kvdb.ErrNotFound) {
			return r.fail(p, tx, err)
		}
	}
	return tx.Commit(p)
}

// delivery implements TPC-C §2.7: deliver the oldest undelivered order of
// each district.
func (r *Runner) delivery(p *sim.Proc, rng *sim.Rand) error {
	cfg := r.db.cfg
	w := rng.IntRange(1, cfg.Warehouses)
	carrier := uint32(rng.IntRange(1, 10))
	tx := r.m.Begin()
	var kb, pb, rb scratch

	for d := 1; d <= cfg.Districts; d++ {
		// Serialize per-district queue consumption.
		qLock := append(keyBuf(kb[:0]), "noq"...).num(w, 0).num(d, 0) // "noq:W:D"
		if err := tx.Lock(p, string(qLock), txn.Exclusive); err != nil {
			return r.fail(p, tx, err)
		}
		prefix := noPrefix(pb[:0], w, d)
		oldest := -1
		err := r.db.trees[NewOrder].Scan(p, prefix, func(k, v []byte) bool {
			if bytes.HasPrefix(k, prefix) {
				if o, ok := keySuffix(k, prefix); ok {
					oldest = o
				}
			}
			return false
		})
		if err != nil {
			return r.fail(p, tx, err)
		}
		if oldest < 0 {
			continue // district queue empty
		}
		if err := r.del(p, tx, NewOrder, noKey(kb[:0], w, d, oldest)); err != nil {
			return r.fail(p, tx, err)
		}
		orderKey := oKey(kb[:0], w, d, oldest)
		oRow, err := r.getForUpdate(p, tx, Order, orderKey)
		if err != nil {
			if errors.Is(err, kvdb.ErrNotFound) {
				continue
			}
			return r.fail(p, tx, err)
		}
		cID := int(getU32(oRow, 0))
		olCnt := int(getU32(oRow, 1))
		if err := r.put(p, tx, Order, orderKey,
			orderRow(rb[:0], uint32(cID), uint32(olCnt), carrier, 1), Order.logicalSize()); err != nil {
			return r.fail(p, tx, err)
		}
		var total int64
		for l := 1; l <= olCnt; l++ {
			olRow, err := r.get(p, tx, OrderLine, olKey(kb[:0], w, d, oldest, l))
			if err != nil {
				if errors.Is(err, kvdb.ErrNotFound) {
					continue
				}
				return r.fail(p, tx, err)
			}
			total += int64(getU32(olRow, 2))
		}
		ck := cKey(kb[:0], w, d, cID)
		cRow, err := r.getForUpdate(p, tx, Customer, ck)
		if err != nil {
			return r.fail(p, tx, err)
		}
		if err := r.put(p, tx, Customer, ck,
			customerRow(rb[:0], customerBalance(cRow)+total, getU32(cRow, 1), getU32(cRow, 2), getU32(cRow, 3)+1, getU32(cRow, 4)),
			Customer.logicalSize()); err != nil {
			return r.fail(p, tx, err)
		}
	}
	return tx.Commit(p)
}

// stockLevel implements TPC-C §2.8's reads: the stock of every distinct item
// of the district's last 20 orders. Nothing reads the low-stock count, so it
// is not kept; the threshold is still drawn, to keep the random stream.
func (r *Runner) stockLevel(p *sim.Proc, rng *sim.Rand) error {
	cfg := r.db.cfg
	w := rng.IntRange(1, cfg.Warehouses)
	d := rng.IntRange(1, cfg.Districts)
	rng.IntRange(10, 20) // the threshold
	tx := r.m.Begin()
	var kb, rb scratch

	dRow, err := r.get(p, tx, District, dKey(kb[:0], w, d))
	if err != nil {
		return r.fail(p, tx, err)
	}
	nextOID := int(getU32(dRow, 0))
	// The distinct items of the last 20 orders, 15 lines at most each.
	var seenSpace [20 * 15]uint32
	seen := seenSpace[:0]
	for o := nextOID - 20; o < nextOID; o++ {
		if o < 1 {
			continue
		}
		for l := 1; l <= 15; l++ {
			olRow, err := r.db.trees[OrderLine].GetAppend(p, rb[:0], olKey(kb[:0], w, d, o, l))
			if errors.Is(err, kvdb.ErrNotFound) {
				break
			}
			if err != nil {
				return r.fail(p, tx, err)
			}
			item := getU32(olRow, 0)
			if slices.Contains(seen, item) {
				continue
			}
			seen = append(seen, item)
			if _, err := r.get(p, tx, Stock, sKey(kb[:0], w, int(item))); err != nil {
				return r.fail(p, tx, err)
			}
		}
	}
	return tx.Commit(p)
}

// fail aborts tx (unless the error already aborted it) and propagates err.
func (r *Runner) fail(p *sim.Proc, tx *txn.Txn, err error) error {
	tx.Abort(p)
	return err
}
