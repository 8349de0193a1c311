package txn

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/kvdb"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/wal"
)

// rig bundles a manager, a store and a tree on simulated disks.
type rig struct {
	env    *sim.Env
	m      *Manager
	tree   *kvdb.Tree
	logDev blockdev.Device
}

func newRig(t *testing.T, mode wal.Mode) *rig {
	t.Helper()
	env := sim.NewEnv()
	mk := func(name string) blockdev.Device {
		d := disk.New(env, disk.Params{
			Name:            name,
			RPM:             7200,
			Geom:            geom.Uniform(1000, 4, 120),
			SeekT2T:         time.Millisecond,
			SeekAvg:         6 * time.Millisecond,
			SeekMax:         12 * time.Millisecond,
			HeadSwitch:      500 * time.Microsecond,
			ReadOverhead:    300 * time.Microsecond,
			WriteOverhead:   600 * time.Microsecond,
			WriteSettle:     100 * time.Microsecond,
			WriteTurnaround: time.Millisecond,
		})
		return stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
	}
	logDev := mk("wal")
	l, err := wal.New(env, wal.Config{Dev: logDev, Sectors: 100000, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, m: NewManager(env, l), logDev: logDev}
	env.Go("setup", func(p *sim.Proc) {
		s, err := kvdb.Open(p, mk("data"), 500)
		if err != nil {
			t.Fatal(err)
		}
		r.tree, err = s.CreateTree(p)
		if err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
	return r
}

func lk(i int) string { return fmt.Sprintf("k:%d", i) }

func TestCommitAppliesWrites(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		if err := tx.Put(p, r.tree, 1, []byte("k1"), []byte("v1"), 100, lk(1)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(p); err != nil {
			t.Fatal(err)
		}
		got, err := r.tree.Get(p, []byte("k1"))
		if err != nil || string(got) != "v1" {
			t.Errorf("after commit: %q %v", got, err)
		}
	})
	r.env.Run()
	if s := r.m.Stats(); s.Committed != 1 || s.CommitIOTime == 0 {
		t.Errorf("stats %+v", s)
	}
	if r.m.Log().Stats().Flushes != 1 {
		t.Errorf("flushes = %d", r.m.Log().Stats().Flushes)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Put(p, r.tree, 1, []byte("k1"), []byte("v1"), 0, lk(1))
		tx.Abort(p)
		if _, err := r.tree.Get(p, []byte("k1")); !errors.Is(err, kvdb.ErrNotFound) {
			t.Error("aborted write visible")
		}
		if err := tx.Commit(p); !errors.Is(err, ErrDone) {
			t.Errorf("commit after abort: %v", err)
		}
	})
	r.env.Run()
	if r.m.Log().Stats().Flushes != 0 {
		t.Error("aborted txn flushed the log")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Put(p, r.tree, 1, []byte("k"), []byte("mine"), 0, lk(1))
		got, err := tx.Get(p, r.tree, 1, []byte("k"), lk(1))
		if err != nil || string(got) != "mine" {
			t.Errorf("own write: %q %v", got, err)
		}
		tx.Delete(p, r.tree, 1, []byte("k"), lk(1))
		if _, err := tx.Get(p, r.tree, 1, []byte("k"), lk(1)); !errors.Is(err, kvdb.ErrNotFound) {
			t.Errorf("own delete: %v", err)
		}
		tx.Abort(p)
	})
	r.env.Run()
}

func TestExclusiveLockBlocksSecondWriter(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	var order []string
	r.env.Go("t1", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Put(p, r.tree, 1, []byte("k"), []byte("t1"), 0, lk(1))
		p.Sleep(20 * time.Millisecond) // hold the lock
		order = append(order, "t1-commit")
		tx.Commit(p)
	})
	r.env.Go("t2", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		tx := r.m.Begin()
		if err := tx.Put(p, r.tree, 1, []byte("k"), []byte("t2"), 0, lk(1)); err != nil {
			t.Errorf("t2 put: %v", err)
			return
		}
		order = append(order, "t2-acquired")
		tx.Commit(p)
	})
	r.env.Run()
	if len(order) != 2 || order[0] != "t1-commit" {
		t.Errorf("order = %v", order)
	}
	if r.m.Stats().LockWaits == 0 {
		t.Error("no lock wait recorded")
	}
	// Final value is t2's (it committed after t1 released).
	r.env.Go("check", func(p *sim.Proc) {
		got, _ := r.tree.Get(p, []byte("k"))
		if string(got) != "t2" {
			t.Errorf("final value %q", got)
		}
	})
	r.env.Run()
}

func TestSharedLocksCoexist(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("setup", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Put(p, r.tree, 1, []byte("k"), []byte("v"), 0, lk(1))
		tx.Commit(p)
	})
	r.env.Run()
	var concurrent int
	for i := 0; i < 3; i++ {
		r.env.Go("reader", func(p *sim.Proc) {
			tx := r.m.Begin()
			if _, err := tx.Get(p, r.tree, 1, []byte("k"), lk(1)); err != nil {
				t.Errorf("get: %v", err)
			}
			concurrent++
			p.Sleep(5 * time.Millisecond)
			tx.Commit(p)
		})
	}
	r.env.Run()
	if concurrent != 3 {
		t.Errorf("readers completed = %d", concurrent)
	}
	if r.m.Stats().LockWaits != 0 {
		t.Error("shared readers waited on each other")
	}
}

func TestDeadlockDetectedAndAborted(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	var deadlocks int
	work := func(first, second int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			tx := r.m.Begin()
			if err := tx.Put(p, r.tree, 1, []byte(lk(first)), []byte("x"), 0, lk(first)); err != nil {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
				return
			}
			p.Sleep(2 * time.Millisecond)
			if err := tx.Put(p, r.tree, 1, []byte(lk(second)), []byte("y"), 0, lk(second)); err != nil {
				if errors.Is(err, ErrDeadlock) {
					deadlocks++
				}
				return
			}
			tx.Commit(p)
		}
	}
	r.env.Go("t1", work(1, 2))
	r.env.Go("t2", work(2, 1))
	r.env.Run()
	if deadlocks != 1 {
		t.Errorf("deadlocks = %d, want exactly 1 victim", deadlocks)
	}
	if r.m.Stats().Deadlocks != 1 {
		t.Errorf("manager deadlock count = %d", r.m.Stats().Deadlocks)
	}
}

func TestLockUpgrade(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		if _, err := tx.Get(p, r.tree, 1, []byte("k"), lk(1)); !errors.Is(err, kvdb.ErrNotFound) {
			t.Errorf("get: %v", err)
		}
		// Upgrade shared -> exclusive with no contention.
		if err := tx.Put(p, r.tree, 1, []byte("k"), []byte("v"), 0, lk(1)); err != nil {
			t.Errorf("upgrade: %v", err)
		}
		tx.Commit(p)
	})
	r.env.Run()
	if r.m.Stats().Committed != 1 {
		t.Error("upgrade txn did not commit")
	}
}

func TestGroupCommitDoesNotFlushPerTxn(t *testing.T) {
	r := newRig(t, wal.GroupCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			tx := r.m.Begin()
			tx.Put(p, r.tree, 1, []byte(lk(i)), []byte("v"), 500, lk(i))
			if err := tx.Commit(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	r.env.Run()
	// 10 txns x ~500 bytes each < 50 KB default buffer: no flush at all.
	if got := r.m.Log().Stats().Flushes; got != 0 {
		t.Errorf("flushes = %d under group commit", got)
	}
}

func TestRedoRecordsPaddedToLogical(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Put(p, r.tree, 1, []byte("k"), []byte("tiny"), 650, lk(1))
		tx.Commit(p)
	})
	r.env.Run()
	if got := r.m.Log().Stats().AppendedBytes; got < 650 {
		t.Errorf("appended %d bytes, want >= logical 650", got)
	}
}

// nameOf is the lock table's key for name.
func nameOf(name string) lockName {
	k := lockName{n: uint8(len(name))}
	copy(k.b[:], name)
	return k
}

func TestLockNameWidth(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	r.env.Go("t", func(p *sim.Proc) {
		tx := r.m.Begin()
		widest := strings.Repeat("w", lockNameWidth)
		if err := tx.Lock(p, widest, Exclusive); err != nil {
			t.Errorf("%d-byte name: %v", len(widest), err)
		}
		if err := tx.Lock(p, widest+"!", Exclusive); !errors.Is(err, ErrLockName) {
			t.Errorf("%d-byte name: %v, want ErrLockName", len(widest)+1, err)
		}
		if _, held := r.m.locks[nameOf(widest)]; !held || len(r.m.locks) != 1 || len(tx.locks) != 1 {
			t.Errorf("after a refused name: %d entries, %d held, widest held %v", len(r.m.locks), len(tx.locks), held)
		}
		// The refusal leaves the transaction going.
		if err := tx.Commit(p); err != nil {
			t.Errorf("commit after a refused name: %v", err)
		}
	})
	r.env.Run()
}

// TestPrefixNamesAreDistinctAndWakeInByteOrder: "k:1" and "k:10" are two
// locks, and waiters parked on them wake in the names' byte order, not in the
// order they were taken or waited for.
func TestPrefixNamesAreDistinctAndWakeInByteOrder(t *testing.T) {
	r := newRig(t, wal.SyncEveryCommit)
	defer r.env.Close()
	var woke []string
	r.env.Go("holder", func(p *sim.Proc) {
		tx := r.m.Begin()
		tx.Lock(p, "k:10", Exclusive)
		tx.Lock(p, "k:1", Exclusive)
		if len(r.m.locks) != 2 {
			t.Errorf("%d lock entries for k:10 and k:1, want 2", len(r.m.locks))
		}
		p.Sleep(10 * time.Millisecond)
		tx.Commit(p)
	})
	for i, name := range []string{"k:10", "k:1"} {
		r.env.Go("waiter", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			tx := r.m.Begin()
			if err := tx.Lock(p, name, Exclusive); err != nil {
				t.Errorf("lock %s: %v", name, err)
				return
			}
			woke = append(woke, name)
			tx.Commit(p)
		})
	}
	r.env.Run()
	if want := []string{"k:1", "k:10"}; !slices.Equal(woke, want) {
		t.Errorf("woke %v, want %v", woke, want)
	}
}
