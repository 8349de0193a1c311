// Package tpcc implements the TPC-C transaction-processing workload of the
// paper's §5.2 experiments: the nine-table schema, the population rules,
// and the five transaction types in their standard mix, running over the
// txn/kvdb/wal stack on simulated disks.
//
// Rows are stored compactly (only the fields the transactions compute with)
// but carry their TPC-C spec widths as logical sizes, so page layout, log
// volume per transaction (~4.5 KB, matching Table 3's flush arithmetic) and
// cache pressure track a production system.
package tpcc

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"tracklog/internal/blockdev"
	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
)

// Table identifies one of the nine TPC-C tables.
type Table int

// The TPC-C tables.
const (
	Warehouse Table = iota + 1
	District
	Customer
	History
	Order
	NewOrder
	OrderLine
	Item
	Stock
	numTables = int(Stock)
)

// logicalSize returns the spec row width used for page-fill and log-volume
// accounting (TPC-C v5 §1.2 storage estimates).
func (t Table) logicalSize() int {
	switch t {
	case Warehouse:
		return 89
	case District:
		return 95
	case Customer:
		return 655
	case History:
		return 46
	case Order:
		return 24
	case NewOrder:
		return 8
	case OrderLine:
		return 54
	case Item:
		return 82
	case Stock:
		return 306
	default:
		panic(fmt.Sprintf("tpcc: bad table %d", t))
	}
}

func (t Table) String() string {
	names := map[Table]string{
		Warehouse: "warehouse", District: "district", Customer: "customer",
		History: "history", Order: "order", NewOrder: "new-order",
		OrderLine: "order-line", Item: "item", Stock: "stock",
	}
	return names[t]
}

// Key builders. Fixed-width decimal fields keep byte order == numeric order
// for B+tree scans: a key is its table's tag letter, then ':' and a
// zero-padded number per field, as fmt's "t:%04d:%02d" wrote them. A builder
// appends to the buffer it is given and allocates only when that is too
// small: a transaction builds its keys and rows in scratch arrays on its
// stack, the next over the last once that is dead, and whoever keeps one
// (txn.Put, the lock table) copies it.

// keyBuf is a key under construction; scratch holds the longest key or row.
type (
	keyBuf  []byte
	scratch [24]byte
)

// num appends ':' and v in at least width digits.
func (k keyBuf) num(v, width int) keyBuf { return appendPadded(append(k, ':'), int64(v), width) }

// appendPadded appends v as fmt's %0*d prints it: zero-padded to width,
// the sign counted in the width, wider when v needs more digits. A
// non-negative v that fits the width, as every key field does, is written
// straight into its width of digits.
func appendPadded(b []byte, v int64, width int) []byte {
	if n := len(b); v >= 0 && width > 0 {
		b = slices.Grow(b, width)[:n+width]
		rest := uint64(v)
		for i := n + width - 1; i >= n; i-- {
			b[i], rest = byte('0'+rest%10), rest/10
		}
		if rest == 0 {
			return b
		}
		b = b[:n]
	}
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], v, 10)
	if v < 0 {
		b, digits, width = append(b, '-'), digits[1:], width-1
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}

func wKey(k keyBuf, w int) []byte        { return append(k, 'w').num(w, 4) }
func dKey(k keyBuf, w, d int) []byte     { return append(k, 'd').num(w, 4).num(d, 2) }
func cKey(k keyBuf, w, d, c int) []byte  { return append(k, 'c').num(w, 4).num(d, 2).num(c, 5) }
func iKey(k keyBuf, i int) []byte        { return append(k, 'i').num(i, 6) }
func sKey(k keyBuf, w, i int) []byte     { return append(k, 's').num(w, 4).num(i, 6) }
func oKey(k keyBuf, w, d, o int) []byte  { return append(k, 'o').num(w, 4).num(d, 2).num(o, 8) }
func noKey(k keyBuf, w, d, o int) []byte { return append(k, 'n').num(w, 4).num(d, 2).num(o, 8) }
func olKey(k keyBuf, w, d, o, l int) []byte {
	return append(k, 'l').num(w, 4).num(d, 2).num(o, 8).num(l, 2)
}
func hKey(k keyBuf, w int, seq int64) []byte {
	return appendPadded(append(append(k, 'h').num(w, 4), ':'), seq, 12)
}

// noPrefix is the scan prefix for a district's new-order queue.
func noPrefix(k keyBuf, w, d int) []byte { return append(append(k, 'n').num(w, 4).num(d, 2), ':') }

// ocKey indexes a customer's orders for Order-Status.
func ocKey(k keyBuf, w, d, c, o int) []byte {
	return append(k, 'x').num(w, 4).num(d, 2).num(c, 5).num(o, 8)
}
func ocPrefix(k keyBuf, w, d, c int) []byte {
	return append(append(k, 'x').num(w, 4).num(d, 2).num(c, 5), ':')
}

// keySuffix parses the decimal field that follows prefix in a scanned key.
// It converts in place and keeps nothing: k may alias a pinned page.
func keySuffix(k, prefix []byte) (int, bool) {
	v, err := strconv.Atoi(string(k[len(prefix):]))
	return v, err == nil
}

// Row codecs: compact little-endian structs of just the computed fields,
// appended to the caller's buffer as keys are.

func appendU32s(b []byte, vals ...uint32) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func getU32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[4*i:]) }

// warehouseRow: [ytdCents, taxBP].
func warehouseRow(b []byte, ytd, tax uint32) []byte { return appendU32s(b, ytd, tax) }

// districtRow: [nextOID, ytdCents, taxBP].
func districtRow(b []byte, nextOID, ytd, tax uint32) []byte {
	return appendU32s(b, nextOID, ytd, tax)
}

// customerRow: [balanceCents(offset 5M to stay unsigned), ytdPayment,
// paymentCnt, deliveryCnt, creditBad].
const balanceOffset = 500_000_000

func customerRow(b []byte, balance int64, ytdPayment, paymentCnt, deliveryCnt, creditBad uint32) []byte {
	return appendU32s(b, uint32(balance+balanceOffset), ytdPayment, paymentCnt, deliveryCnt, creditBad)
}

func customerBalance(row []byte) int64 { return int64(getU32(row, 0)) - balanceOffset }

// itemRow: [priceCents, imID].
func itemRow(b []byte, price, imID uint32) []byte { return appendU32s(b, price, imID) }

// stockRow: [quantity, ytd, orderCnt, remoteCnt].
func stockRow(b []byte, qty, ytd, orderCnt, remoteCnt uint32) []byte {
	return appendU32s(b, qty, ytd, orderCnt, remoteCnt)
}

// orderRow: [cID, olCnt, carrierID, entryDay].
func orderRow(b []byte, cID, olCnt, carrier, entry uint32) []byte {
	return appendU32s(b, cID, olCnt, carrier, entry)
}

// orderLineRow: [iID, qty, amountCents, deliveryDay].
func orderLineRow(b []byte, iID, qty, amount, delivery uint32) []byte {
	return appendU32s(b, iID, qty, amount, delivery)
}

// historyRow: [cID, amountCents].
func historyRow(b []byte, cID, amount uint32) []byte { return appendU32s(b, cID, amount) }

// Config sizes the database. Zero fields take TPC-C spec defaults for one
// warehouse; tests shrink them.
type Config struct {
	// Warehouses is the TPC-C scale factor w (paper: 1).
	Warehouses int
	// Districts per warehouse (spec: 10).
	Districts int
	// CustomersPerDistrict (spec: 3000).
	CustomersPerDistrict int
	// Items in the catalog (spec: 100000).
	Items int
	// InitialOrdersPerDistrict pre-populates order history (spec: 3000).
	InitialOrdersPerDistrict int
	// CachePages is the page-cache capacity per table store (paper: the
	// database buffer cache is 300 MB across the system).
	CachePages int
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 1
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items == 0 {
		c.Items = 100000
	}
	if c.InitialOrdersPerDistrict == 0 {
		c.InitialOrdersPerDistrict = c.CustomersPerDistrict
	}
	if c.CachePages == 0 {
		c.CachePages = 4096
	}
	return c
}

// DB is a loaded TPC-C database: trees spread across the data stores the
// way the paper spreads tables across two data disks.
type DB struct {
	cfg    Config
	stores []*kvdb.Store
	trees  map[Table]*kvdb.Tree
	// hSeq numbers history rows (append-only table).
	hSeq int64
}

// tablePlacement maps each table to a data store index (modulo available
// stores): the big read-heavy tables (stock, item) on one spindle,
// everything else on the other, echoing the paper's two table disks.
func tablePlacement(t Table, stores int) int {
	switch t {
	case Item, Stock:
		return 0
	default:
		return 1 % stores
	}
}

// Load populates a fresh TPC-C database on the given data devices, which
// must serve I/O without simulated time (instant devices, reopened later on
// timed ones): each store loads in a world of its own, the stores at once
// (sim.Parallel), and the caller's world does not advance. The stores hold
// nothing of their worlds.
func Load(_ *sim.Proc, cfg Config, dataDevs []blockdev.Device) (*DB, error) {
	cfg = cfg.withDefaults()
	if len(dataDevs) == 0 {
		return nil, fmt.Errorf("tpcc: no data devices")
	}
	type loaded struct {
		db  *DB
		err error
	}
	parts := sim.Parallel(len(dataDevs), func(si int) loaded {
		db, err := loadStore(cfg, si, dataDevs)
		return loaded{db, err}
	})
	db := &DB{cfg: cfg, trees: make(map[Table]*kvdb.Tree)}
	for _, part := range parts {
		if part.err != nil {
			return nil, part.err
		}
		db.stores = append(db.stores, part.db.stores...)
		maps.Copy(db.trees, part.db.trees)
	}
	return db, nil
}

// loadStore opens store si on dataDevs[si] and populates its tables, in a
// world it closes before returning. The DB it returns holds that store and
// its trees only.
func loadStore(cfg Config, si int, dataDevs []blockdev.Device) (*DB, error) {
	env := sim.NewEnv()
	defer env.Close()
	db := &DB{cfg: cfg, trees: make(map[Table]*kvdb.Tree)}
	err := fmt.Errorf("tpcc: store %d did not finish loading: a device waited in simulated time", si)
	env.Go("load", func(p *sim.Proc) {
		s, e := kvdb.Open(p, dataDevs[si], cfg.CachePages)
		if e != nil {
			err = fmt.Errorf("tpcc: opening store: %w", e)
			return
		}
		db.stores = []*kvdb.Store{s}
		// Create trees in fixed table order so a reopen finds them by index.
		for t := Table(1); int(t) <= numTables; t++ {
			if tablePlacement(t, len(dataDevs)) != si {
				continue
			}
			if db.trees[t], e = s.CreateTree(p); e != nil {
				err = fmt.Errorf("tpcc: creating %v tree: %w", t, e)
				return
			}
		}
		err = db.populate(p)
	})
	env.Run()
	return db, err
}

// Reopen opens an already-populated database (after the stores were loaded
// and flushed on the same media through other devices).
func Reopen(p *sim.Proc, cfg Config, dataDevs []blockdev.Device) (*DB, error) {
	cfg = cfg.withDefaults()
	db := &DB{cfg: cfg, trees: make(map[Table]*kvdb.Tree)}
	for _, dev := range dataDevs {
		s, err := kvdb.Open(p, dev, cfg.CachePages)
		if err != nil {
			return nil, fmt.Errorf("tpcc: reopening store: %w", err)
		}
		db.stores = append(db.stores, s)
	}
	// Trees were created in table order; recover the placement mapping.
	counters := make([]int, len(db.stores))
	for t := Table(1); int(t) <= numTables; t++ {
		si := tablePlacement(t, len(db.stores))
		tree, err := db.stores[si].Tree(counters[si])
		if err != nil {
			return nil, fmt.Errorf("tpcc: reopening %v tree: %w", t, err)
		}
		counters[si]++
		db.trees[t] = tree
	}
	db.hSeq = 1 << 40 // disjoint from load-time history keys
	return db, nil
}

// Tree returns the tree backing a table.
func (db *DB) Tree(t Table) *kvdb.Tree { return db.trees[t] }

// Stores returns the underlying stores (for cache stats / checkpointing).
func (db *DB) Stores() []*kvdb.Store { return db.stores }

// populate fills the tables per the TPC-C population rules (scaled by cfg)
// that db holds a tree of. It draws every table's random values, in one
// order whatever db holds, but builds keys and rows for its own tables only.
func (db *DB) populate(p *sim.Proc) error {
	cfg := db.cfg
	rng := sim.NewRand(cfg.Seed + 1)
	var kb, rb scratch
	k, row := kb[:0], rb[:0]
	has := func(t Table) bool { return db.trees[t] != nil }
	put := func(t Table, key, val []byte) error {
		return db.trees[t].Put(p, key, val, t.logicalSize())
	}
	for i := 1; i <= cfg.Items; i++ {
		price, imID := rng.IntRange(100, 10000), rng.Intn(10000)
		if has(Item) {
			if err := put(Item, iKey(k, i), itemRow(row, uint32(price), uint32(imID))); err != nil {
				return err
			}
		}
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if tax := rng.Intn(2000); has(Warehouse) {
			if err := put(Warehouse, wKey(k, w), warehouseRow(row, 30000000, uint32(tax))); err != nil {
				return err
			}
		}
		for i := 1; i <= cfg.Items; i++ {
			if qty := rng.IntRange(10, 100); has(Stock) {
				if err := put(Stock, sKey(k, w, i), stockRow(row, uint32(qty), 0, 0, 0)); err != nil {
					return err
				}
			}
		}
		for d := 1; d <= cfg.Districts; d++ {
			nextOID := cfg.InitialOrdersPerDistrict + 1
			if tax := rng.Intn(2000); has(District) {
				if err := put(District, dKey(k, w, d), districtRow(row, uint32(nextOID), 3000000, uint32(tax))); err != nil {
					return err
				}
			}
			for c := 1; c <= cfg.CustomersPerDistrict; c++ {
				bad := uint32(0)
				if rng.Intn(10) == 0 {
					bad = 1 // 10% BC credit
				}
				if has(Customer) {
					if err := put(Customer, cKey(k, w, d, c), customerRow(row, -1000, 1000, 1, 0, bad)); err != nil {
						return err
					}
				}
			}
			for o := 1; o <= cfg.InitialOrdersPerDistrict; o++ {
				cID := rng.IntRange(1, cfg.CustomersPerDistrict)
				olCnt := rng.IntRange(5, 15)
				carrier := uint32(rng.IntRange(1, 10))
				undelivered := o > cfg.InitialOrdersPerDistrict*2/3
				if undelivered {
					carrier = 0
					if has(NewOrder) {
						if err := put(NewOrder, noKey(k, w, d, o), []byte{1}); err != nil {
							return err
						}
					}
				}
				if has(Order) {
					if err := put(Order, oKey(k, w, d, o), orderRow(row, uint32(cID), uint32(olCnt), carrier, 0)); err != nil {
						return err
					}
					if err := put(Order, ocKey(k, w, d, cID, o), []byte{1}); err != nil {
						return err
					}
				}
				for l := 1; l <= olCnt; l++ {
					item, amount := rng.IntRange(1, cfg.Items), rng.Intn(999900)
					if has(OrderLine) {
						if err := put(OrderLine, olKey(k, w, d, o, l), orderLineRow(row, uint32(item), 5, uint32(amount), carrier)); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// FlushAll checkpoints every store's dirty pages.
func (db *DB) FlushAll(p *sim.Proc) error {
	for _, s := range db.stores {
		if err := s.Cache().FlushAll(p); err != nil {
			return err
		}
	}
	return nil
}
