package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

func newRig(t *testing.T, cachePages int) (*sim.Env, *Store) {
	t.Helper()
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{
		Name:            "db",
		RPM:             7200,
		Geom:            geom.Uniform(2000, 4, 120),
		SeekT2T:         time.Millisecond,
		SeekAvg:         6 * time.Millisecond,
		SeekMax:         12 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
	var s *Store
	var err error
	env.Go("open", func(p *sim.Proc) { s, err = Open(p, dev, cachePages) })
	env.Run()
	if err != nil {
		t.Fatal(err)
	}
	return env, s
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", fn)
	env.Run()
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestPutGet(t *testing.T) {
	env, s := newRig(t, 100)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, err := s.CreateTree(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := tr.Put(p, key(i), val(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			got, err := tr.Get(p, key(i))
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if !bytes.Equal(got, val(i)) {
				t.Fatalf("get %d = %q", i, got)
			}
		}
		if _, err := tr.Get(p, []byte("missing")); !errors.Is(err, ErrNotFound) {
			t.Errorf("missing key: %v", err)
		}
	})
}

// TestGetCopiesOut: what Get and GetAppend return is the caller's. Writing to
// it changes neither the page nor a later read, GetAppend extends the buffer
// it is given and leaves what was in it, and a miss hands the buffer back.
func TestGetCopiesOut(t *testing.T) {
	env, s := newRig(t, 100)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tree, err := s.CreateTree(p)
		if err == nil {
			err = tree.Put(p, []byte("k"), []byte("value"), 5)
		}
		if err != nil {
			t.Error(err)
			return
		}
		got, err := tree.Get(p, []byte("k"))
		if err != nil || string(got) != "value" {
			t.Errorf("Get = %q, %v", got, err)
			return
		}
		clear(got)
		buf := append(make([]byte, 0, 16), "row:"...)
		got, err = tree.GetAppend(p, buf, []byte("k"))
		if err != nil || string(got) != "row:value" || &got[0] != &buf[0] {
			t.Errorf("GetAppend = %q, %v, want row:value in the buffer given", got, err)
		}
		clear(got)
		if again, _ := tree.Get(p, []byte("k")); string(again) != "value" {
			t.Errorf("a caller's write reached the page: %q", again)
		}
		if got, err = tree.GetAppend(p, buf, []byte("absent")); !errors.Is(err, ErrNotFound) || len(got) != len(buf) {
			t.Errorf("miss = %q, %v, want the buffer back and ErrNotFound", got, err)
		}
	})
}

func TestUpdateReplaces(t *testing.T) {
	env, s := newRig(t, 100)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		tr.Put(p, key(1), []byte("old"), 0)
		tr.Put(p, key(1), []byte("new-longer-value"), 0)
		got, err := tr.Get(p, key(1))
		if err != nil || string(got) != "new-longer-value" {
			t.Errorf("got %q, %v", got, err)
		}
	})
}

func TestSplitsWithManyKeys(t *testing.T) {
	env, s := newRig(t, 500)
	defer env.Close()
	const n = 5000
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		// Insert in a shuffled order to exercise splits at every level.
		rng := sim.NewRand(9)
		for _, i := range rng.Perm(n) {
			if err := tr.Put(p, key(i), val(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 37 {
			got, err := tr.Get(p, key(i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("get %d after splits: %q %v", i, got, err)
			}
		}
	})
	if s.nextPage < 10 {
		t.Errorf("tree used %d pages for %d keys; splits not happening", s.nextPage, n)
	}
}

func TestLogicalSizeDrivesSplits(t *testing.T) {
	pagesWith := func(logical int) int64 {
		env, s := newRig(t, 500)
		defer env.Close()
		run(env, func(p *sim.Proc) {
			tr, _ := s.CreateTree(p)
			for i := 0; i < 200; i++ {
				if err := tr.Put(p, key(i), []byte("xx"), logical); err != nil {
					t.Fatal(err)
				}
			}
		})
		return s.nextPage
	}
	compact, wide := pagesWith(0), pagesWith(600)
	if wide < compact*4 {
		t.Errorf("pages: logical-600 = %d vs compact = %d; logical accounting inactive", wide, compact)
	}
}

func TestScanOrdered(t *testing.T) {
	env, s := newRig(t, 500)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		rng := sim.NewRand(3)
		for _, i := range rng.Perm(1000) {
			tr.Put(p, key(i), val(i), 0)
		}
		var prev []byte
		count := 0
		err := tr.Scan(p, nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(k, prev) <= 0 {
				t.Fatalf("scan out of order: %q after %q", k, prev)
			}
			prev = append(prev[:0], k...)
			count++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 1000 {
			t.Errorf("scan visited %d keys", count)
		}
	})
}

func TestScanFromAndEarlyStop(t *testing.T) {
	env, s := newRig(t, 200)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		for i := 0; i < 100; i++ {
			tr.Put(p, key(i), val(i), 0)
		}
		var got []string
		tr.Scan(p, key(90), func(k, v []byte) bool {
			got = append(got, string(k))
			return len(got) < 5
		})
		if len(got) != 5 || got[0] != string(key(90)) {
			t.Errorf("scan from = %v", got)
		}
	})
}

func TestDelete(t *testing.T) {
	env, s := newRig(t, 200)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		for i := 0; i < 50; i++ {
			tr.Put(p, key(i), val(i), 0)
		}
		if err := tr.Delete(p, key(25)); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Get(p, key(25)); !errors.Is(err, ErrNotFound) {
			t.Error("deleted key still present")
		}
		if err := tr.Delete(p, key(25)); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete: %v", err)
		}
		// Neighbours unaffected.
		if _, err := tr.Get(p, key(24)); err != nil {
			t.Error("neighbour lost")
		}
	})
}

func TestMultipleTrees(t *testing.T) {
	env, s := newRig(t, 200)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		a, _ := s.CreateTree(p)
		b, _ := s.CreateTree(p)
		a.Put(p, []byte("k"), []byte("from-a"), 0)
		b.Put(p, []byte("k"), []byte("from-b"), 0)
		av, _ := a.Get(p, []byte("k"))
		bv, _ := b.Get(p, []byte("k"))
		if string(av) != "from-a" || string(bv) != "from-b" {
			t.Errorf("trees share state: %q %q", av, bv)
		}
	})
	if s.NumTrees() != 2 {
		t.Errorf("NumTrees = %d", s.NumTrees())
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	env, s := newRig(t, 200)
	var devRef blockdev.Device
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		for i := 0; i < 500; i++ {
			tr.Put(p, key(i), val(i), 0)
		}
		if err := s.Cache().FlushAll(p); err != nil {
			t.Fatal(err)
		}
	})
	// Reopen through a fresh store (cold cache) on the same device. The
	// device object is env-bound; reuse same env.
	_ = devRef
	var s2 *Store
	env.Go("reopen", func(p *sim.Proc) {
		var err error
		s2, err = Open(p, s.Device(), 200)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s2.Tree(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i += 41 {
			got, err := tr.Get(p, key(i))
			if err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("after reopen get %d: %q %v", i, got, err)
			}
		}
	})
	env.Run()
	env.Close()
}

func TestTooLargeRejected(t *testing.T) {
	env, s := newRig(t, 100)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		if err := tr.Put(p, []byte("k"), make([]byte, 3000), 0); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized value: %v", err)
		}
	})
}

func TestPutGetProperty(t *testing.T) {
	env, s := newRig(t, 300)
	defer env.Close()
	model := map[string]string{}
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		rng := sim.NewRand(77)
		f := func(rawK, rawV uint16) bool {
			k := []byte(fmt.Sprintf("pk-%d", rawK%500))
			v := []byte(fmt.Sprintf("pv-%d-%d", rawV, rng.Intn(10)))
			if err := tr.Put(p, k, v, 0); err != nil {
				return false
			}
			model[string(k)] = string(v)
			got, err := tr.Get(p, k)
			return err == nil && string(got) == model[string(k)]
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
		// Final sweep: everything in the model is retrievable.
		for k, v := range model {
			got, err := tr.Get(p, []byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("model mismatch at %q", k)
			}
		}
	})
}

func TestStructuralInvariantsAfterRandomOps(t *testing.T) {
	env, s := newRig(t, 600)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		tr, _ := s.CreateTree(p)
		rng := sim.NewRand(55)
		for i := 0; i < 3000; i++ {
			k := key(rng.Intn(800))
			switch rng.Intn(10) {
			case 0:
				tr.Delete(p, k) // often ErrNotFound; fine
			default:
				if err := tr.Put(p, k, val(i), rng.Intn(300)); err != nil {
					t.Fatal(err)
				}
			}
			if i%500 == 0 {
				if err := tr.Check(p); err != nil {
					t.Fatalf("after %d ops: %v", i, err)
				}
			}
		}
		if err := tr.Check(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentWritersKeepTheTreeSound: writers put interleaved keys into
// one tree on a 16-page cache, so each descent waits for pages while the
// others split nodes on its path. The tree must pass Check and hold every
// writer's last value for each of its keys.
func TestConcurrentWritersKeepTheTreeSound(t *testing.T) {
	for _, writers := range []int{1, 2, 4} {
		t.Run(fmt.Sprint(writers), func(t *testing.T) {
			env, s := newRig(t, 16)
			defer env.Close()
			var tr *Tree
			runErr(t, env, func(p *sim.Proc) (err error) {
				tr, err = s.CreateTree(p)
				return err
			})
			want := map[string][]byte{}
			for w := 0; w < writers; w++ {
				env.Go(fmt.Sprint("writer", w), func(p *sim.Proc) {
					rng := sim.NewRand(uint64(w + 1))
					for i := 0; i < 600; i++ {
						k := genKey(writers*rng.Intn(100) + w)
						v, logical := genValue(rng, k, maxEntry)
						if err := tr.Put(p, k, v, logical); err != nil {
							t.Error(err)
							return
						}
						want[string(k)] = v
					}
				})
			}
			env.Run()
			runErr(t, env, func(p *sim.Proc) error {
				if err := tr.Check(p); err != nil {
					return err
				}
				for k, v := range want {
					if got, err := tr.Get(p, []byte(k)); err != nil || !bytes.Equal(got, v) {
						return fmt.Errorf("key %.8q: got %d bytes, %v; want %d bytes", k, len(got), err, len(v))
					}
				}
				return nil
			})
		})
	}
}
