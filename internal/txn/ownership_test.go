package txn

// A transaction copies what it keeps and nothing else (DESIGN.md §4, "Who
// owns a block's bytes"): Put and Delete copy key and row once, into the redo
// record that is later logged and applied; the lock table copies the name
// into its fixed-width key; Get copies the row out into a buffer of the
// transaction's. These tests scribble on everything a caller hands in or gets back.

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"tracklog/internal/kvdb"
	"tracklog/internal/sim"
	"tracklog/internal/wal"
)

func TestPutAndDeleteCopyKeyRowAndLockName(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	var records [][]byte
	r.env.Go("t", func(p *sim.Proc) {
		seed := r.m.Begin()
		seed.Put(p, r.tree, 1, []byte("doomed"), []byte("x"), 0, "doomed")
		if err := seed.Commit(p); err != nil {
			t.Error(err)
			return
		}

		tx := r.m.Begin()
		key, row, nameBuf := []byte("key-1?"), []byte("row-1"), []byte("lock-1")
		// A lock name that lives in a buffer, as the temporary string(key) of
		// a caller whose name never leaves its stack does.
		name := unsafe.String(&nameBuf[0], len(nameBuf))
		if err := tx.Put(p, r.tree, 1, key[:5], row, 40, name); err != nil {
			t.Error(err)
			return
		}
		// The caller builds its next key, row and lock name in the same buffers.
		copy(key, "KEY-2")
		copy(row, "ROW-2")
		copy(nameBuf, "LOCK-2")
		if err := tx.Put(p, r.tree, 1, key[:5], row, 40, name); err != nil {
			t.Error(err)
			return
		}
		copy(key, "doomed")
		if err := tx.Delete(p, r.tree, 1, key, "doomed"); err != nil {
			t.Error(err)
			return
		}
		clear(key)
		clear(row)
		clear(nameBuf)
		if _, held := r.m.locks[nameOf("lock-1")]; !held || len(r.m.locks) != 3 {
			t.Errorf("lock table holds %d names, lock-1 among them: %v", len(r.m.locks), held)
		}
		if err := tx.Commit(p); err != nil {
			t.Error(err)
			return
		}
		for k, want := range map[string]string{"key-1": "row-1", "KEY-2": "ROW-2"} {
			if got, err := r.tree.Get(p, []byte(k)); err != nil || string(got) != want {
				t.Errorf("tree[%s] = %q, %v, want %q", k, got, err, want)
			}
		}
		if _, err := r.tree.Get(p, []byte("doomed")); !errors.Is(err, kvdb.ErrNotFound) {
			t.Errorf("deleted key: %v", err)
		}
		var err error
		if records, err = wal.ReadRecords(p, r.logDev, 100000); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()

	type op struct {
		del        bool
		key, value string
		logical    int
	}
	want := []op{{false, "doomed", "x", 1}, {false, "key-1", "row-1", 40}, {false, "KEY-2", "ROW-2", 40}, {true, "doomed", "", 0}}
	if len(records) != len(want) {
		t.Fatalf("%d records logged, want %d", len(records), len(want))
	}
	for i, rec := range records {
		tag, del, key, value, logical, err := decodeRedo(rec)
		if got := (op{del, string(key), string(value), logical}); err != nil || tag != 1 || got != want[i] {
			t.Errorf("record %d = tag %d %+v, %v, want %+v", i, tag, got, err, want[i])
		}
		if pad := rec[8+len(key)+len(value):]; !bytes.Equal(pad, make([]byte, len(pad))) {
			t.Errorf("record %d: padding is not zero: %x", i, pad)
		}
	}
}

func TestGetReturnsACopyValidUntilTheNextCall(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		seed := r.m.Begin()
		seed.Put(p, r.tree, 1, []byte("a"), []byte("stored-a"), 0, lk(1))
		seed.Put(p, r.tree, 1, []byte("b"), []byte("stored-b"), 0, lk(2))
		if err := seed.Commit(p); err != nil {
			t.Error(err)
			return
		}

		tx := r.m.Begin()
		get := func(key, name string) string {
			row, err := tx.Get(p, r.tree, 1, []byte(key), name)
			if err != nil {
				t.Errorf("get %s: %v", key, err)
			}
			return string(row)
		}
		row, err := tx.GetForUpdate(p, r.tree, 1, []byte("a"), lk(1))
		if err != nil || string(row) != "stored-a" {
			t.Errorf("row = %q, %v", row, err)
			return
		}
		// Not a read: the row stays whole across a write and a lock.
		tx.Put(p, r.tree, 1, []byte("c"), []byte("buffered-c"), 0, lk(3))
		tx.Lock(p, lk(4), Shared)
		if string(row) != "stored-a" {
			t.Errorf("row changed before the next read: %q", row)
		}
		clear(row) // the caller's to scribble on: neither the page nor a later read sees it
		if got := get("a", lk(1)); got != "stored-a" {
			t.Errorf("second read of a = %q", got)
		}
		if got, _ := r.tree.Get(p, []byte("a")); string(got) != "stored-a" {
			t.Errorf("page holds %q", got)
		}
		// The same holds for a row the transaction has only buffered.
		row, _ = tx.Get(p, r.tree, 1, []byte("c"), lk(3))
		clear(row)
		if got := get("c", lk(3)); got != "buffered-c" {
			t.Errorf("second read of buffered c = %q", got)
		}
		tx.Delete(p, r.tree, 1, []byte("b"), lk(2))
		if _, err := tx.Get(p, r.tree, 1, []byte("b"), lk(2)); !errors.Is(err, kvdb.ErrNotFound) {
			t.Errorf("read of own delete: %v", err)
		}
		tx.Put(p, r.tree, 1, []byte("b"), []byte("again-b"), 0, lk(2))
		if got := get("b", lk(2)); got != "again-b" {
			t.Errorf("read of own put after delete = %q", got)
		}
		if err := tx.Commit(p); err != nil {
			t.Error(err)
		}
		// A finished transaction's buffers serve the next one; its handle
		// keeps answering ErrDone and nothing else.
		if _, err := tx.Get(p, r.tree, 1, []byte("a"), lk(1)); !errors.Is(err, ErrDone) {
			t.Errorf("get on a committed transaction: %v", err)
		}
		next := r.m.Begin()
		if row, err := next.Get(p, r.tree, 1, []byte("c"), lk(3)); err != nil || string(row) != "buffered-c" {
			t.Errorf("next transaction reads c = %q, %v", row, err)
		}
		if err := tx.Put(p, r.tree, 1, []byte("a"), []byte("late"), 0, lk(1)); !errors.Is(err, ErrDone) {
			t.Errorf("put on a committed transaction: %v", err)
		}
		next.Abort(p)
		if got, _ := r.tree.Get(p, []byte("a")); string(got) != "stored-a" {
			t.Errorf("a = %q after a stale handle's put", got)
		}
	})
	r.env.Run()
}

// TestRecycledLockEntriesAreEmpty: a lock table entry on the free list holds
// no name, holder or waiter, whatever contention emptied it.
func TestRecycledLockEntriesAreEmpty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		var free []*lockState
		if err := runLockModel(seed, func(m *Manager) { free = m.freeLocks.Live() }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(free) == 0 {
			t.Fatalf("seed %d: nothing was recycled", seed)
		}
		for _, ls := range free {
			if ls.name != (lockName{}) || len(ls.holders) != 0 || ls.queue.Len() != 0 {
				t.Errorf("seed %d: recycled entry %q with %d holders, %d waiters", seed, ls.name.bytes(), len(ls.holders), ls.queue.Len())
			}
		}
	}
}
