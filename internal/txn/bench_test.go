package txn

import (
	"errors"
	"fmt"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
	"tracklog/internal/wal"
)

// The transaction manager's rungs of the per-layer benchmark ladder
// (ROADMAP): the host cost of the lock table, the redo buffer and the read
// path, on devices that take no virtual time and a cache that never evicts.
// Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/txn

// instantRig is a manager and a tree of n 12-byte rows on instant devices.
func instantRig(tb testing.TB, n int) *rig {
	tb.Helper()
	env := sim.NewEnv()
	tb.Cleanup(env.Close)
	dev := func(minor uint8) blockdev.Device {
		return disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3, Minor: minor})
	}
	logDev := dev(0)
	l, err := wal.New(env, wal.Config{Dev: logDev, Sectors: logDev.Sectors(), Mode: wal.SyncEveryCommit})
	if err != nil {
		tb.Fatal(err)
	}
	r := &rig{env: env, m: NewManager(env, l), logDev: logDev}
	env.Go("setup", func(p *sim.Proc) {
		var s *kvdb.Store
		if s, err = kvdb.Open(p, dev(1), 4096); err == nil {
			r.tree, err = s.CreateTree(p)
		}
		for i := 0; i < n && err == nil; i++ {
			err = r.tree.Put(p, benchKey(i), []byte("twelve bytes"), 100)
		}
	})
	env.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func benchKey(i int) []byte { return []byte(fmt.Sprintf("row:%06d", i)) }

// lockCommit30 is one transaction the shape of a TPC-C new-order: 30 rows
// locked through reads, 10 of them written back, committed. The keys are the
// caller's buffers and name their own locks.
func lockCommit30(p *sim.Proc, r *rig, keys [][]byte) error {
	tx := r.m.Begin()
	for i, key := range keys {
		row, err := tx.GetForUpdate(p, r.tree, 1, key, string(key))
		if err == nil && i%3 == 0 {
			err = tx.Put(p, r.tree, 1, key, row, 100, string(key))
		}
		if err != nil {
			return err
		}
	}
	return tx.Commit(p)
}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = benchKey(i * 7)
	}
	return keys
}

func BenchmarkLockCommit30(b *testing.B) {
	r := instantRig(b, 1000)
	keys := benchKeys(30)
	r.env.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := lockCommit30(p, r, keys); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	r.env.Run()
}

func BenchmarkGetHit(b *testing.B) {
	r := instantRig(b, 1000)
	key := benchKey(7)
	r.env.Go("bench", func(p *sim.Proc) {
		tx := r.m.Begin()
		for i := 0; i < b.N; i++ {
			if _, err := tx.Get(p, r.tree, 1, key, string(key)); err != nil {
				b.Error(err)
				return
			}
		}
		tx.Abort(p)
	})
	b.ReportAllocs()
	b.ResetTimer()
	r.env.Run()
}

// TestSteadyStateAllocations pins what a transaction allocates once the
// manager has seen its shape: a share of a slab chunk for itself. Taking a
// lock, new or held, reading a cached row, buffering a write and logging it
// allocate nothing (the instant devices leave a rare media slab, which
// AllocsPerRun's integral average rounds away).
func TestSteadyStateAllocations(t *testing.T) {
	r := instantRig(t, 1000)
	keys := benchKeys(30)
	r.env.Go("t", func(p *sim.Proc) {
		measure := func(what string, max float64, fn func() error) {
			got := testing.AllocsPerRun(100, func() {
				if err := fn(); err != nil {
					panic(err)
				}
			})
			if got > max {
				t.Errorf("%s: %v allocations, want at most %v", what, got, max)
			}
		}
		measure("30 fresh locks, 30 reads, 10 writes, commit", 1, func() error { return lockCommit30(p, r, keys) })

		tx := r.m.Begin()
		key, name := keys[0], string(keys[0])
		if err := tx.Lock(p, name, Exclusive); err != nil {
			t.Error(err)
			return
		}
		measure("Lock of a held key", 0, func() error { return tx.Lock(p, string(key), Shared) })
		measure("Get of a cached row", 0, func() error {
			_, err := tx.Get(p, r.tree, 1, key, string(key))
			return err
		})
		tx.Abort(p)

		// Ten locks, ten writes and their ten log records.
		measure("10 locks, 10 writes, commit", 1, func() error {
			tx := r.m.Begin()
			for _, key := range keys[:10] {
				if err := tx.Put(p, r.tree, 1, key, []byte("a row of 16 byte"), 100, string(key)); err != nil {
					return err
				}
			}
			return tx.Commit(p)
		})

		// k transactions begun and committed carve their Txns from the
		// manager's slab, at most one allocation in 8 (one each when Begin
		// made its Txn). None is reused, so each still answers ErrDone.
		const k = 1000
		txns := make([]*Txn, 0, 2*k) // AllocsPerRun runs once before it measures
		if got := testing.AllocsPerRun(1, func() {
			for range k {
				tx := r.m.Begin()
				if err := tx.Commit(p); err != nil {
					panic(err)
				}
				txns = append(txns, tx)
			}
		}); got > k/8 {
			t.Errorf("%d Begin/Commit rounds: %v allocations, want at most %d", k, got, k/8)
		}
		seen := make(map[*Txn]bool, len(txns))
		for _, tx := range txns {
			if seen[tx] {
				t.Fatalf("transaction %d's handle was handed out twice", tx.ID())
			}
			seen[tx] = true
			if err := tx.Commit(p); !errors.Is(err, ErrDone) {
				t.Fatalf("transaction %d committed again: %v, want ErrDone", tx.ID(), err)
			}
		}
	})
	r.env.Run()
}
