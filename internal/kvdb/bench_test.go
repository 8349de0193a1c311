package kvdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"tracklog/internal/sim"
)

// The kvdb rungs of the per-layer ladder: one tree on a device that takes
// no simulated time and a cache that never evicts, so a number is the
// engine's own host cost. bench/probes.go times the same Put and Get from
// outside; these add allocations per operation and the split-heavy and scan
// paths.

// benchKey spreads i over the key space, as bench/probes.go does.
func benchKey(i int) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, uint64(i+1)*0x9E3779B97F4A7C15)
	return k
}

// benchTree returns a tree holding n random-order keys with 100-byte
// values, and the process-running function for its world.
func benchTree(tb testing.TB, n int) (*Tree, func(func(p *sim.Proc))) {
	tb.Helper()
	env, s := instantStore(tb, 1<<16)
	tb.Cleanup(env.Close)
	var tr *Tree
	runErr(tb, env, func(p *sim.Proc) (err error) {
		if tr, err = s.CreateTree(p); err != nil {
			return err
		}
		v := make([]byte, 100)
		for i := 0; i < n && err == nil; i++ {
			err = tr.Put(p, benchKey(i), v, len(v))
		}
		return err
	})
	return tr, func(fn func(p *sim.Proc)) { run(env, fn) }
}

var benchSink int

func BenchmarkGet(b *testing.B) {
	const n = 100_000
	tr, in := benchTree(b, n)
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = benchKey(i * 97 % n)
	}
	b.ReportAllocs()
	in(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := tr.Get(p, keys[i%len(keys)])
			if err != nil {
				panic(err)
			}
			benchSink += len(v)
		}
	})
}

// BenchmarkPutAppend inserts ascending keys: every insert lands at the end
// of the rightmost leaf, which splits when it fills.
func BenchmarkPutAppend(b *testing.B) {
	tr, in := benchTree(b, 0)
	k, v := make([]byte, 16), make([]byte, 100)
	b.ReportAllocs()
	in(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(k, uint64(i))
			if err := tr.Put(p, k, v, len(v)); err != nil {
				panic(err)
			}
		}
	})
}

// BenchmarkPutRandom inserts keys in random order into a tree that already
// holds 100 000: inserts shift cells mid-page and splits happen everywhere.
func BenchmarkPutRandom(b *testing.B) {
	const n = 100_000
	tr, in := benchTree(b, n)
	k, v := make([]byte, 16), make([]byte, 100)
	b.ReportAllocs()
	in(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(k, uint64(n+i+1)*0x9E3779B97F4A7C15)
			if err := tr.Put(p, k, v, len(v)); err != nil {
				panic(err)
			}
		}
	})
}

// BenchmarkScan reads 1 000 consecutive entries per operation.
func BenchmarkScan(b *testing.B) {
	const n = 100_000
	tr, in := benchTree(b, n)
	left := 0
	count := func(k, v []byte) bool {
		benchSink += len(v)
		left--
		return left > 0
	}
	b.ReportAllocs()
	in(func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			left = 1000
			if err := tr.Scan(p, benchKey(i%64), count); err != nil {
				panic(err)
			}
		}
	})
}

// TestAllocations pins what the engine allocates per operation once pages
// are cached: a Get its returned copy, a GetAppend into a buffer that has
// room, a Put that does not split and a Scan nothing. An ascending stream of
// 16-byte keys and values splits a leaf every ~54 Puts and an internal node
// every ~4 000: a split allocates the new page's frame and data, the
// separator and, on a cache that never evicts, the new page's offset table,
// one array of the largest size that every later insert fits in. The stream
// makes 73 allocations a thousand Puts (56 when only internal nodes kept a
// table); tables that grew by append made 165.
func TestAllocations(t *testing.T) {
	const n = 40_000
	tr, in := benchTree(t, n)
	in(func(p *sim.Proc) {
		var path [maxDepth]step
		leaf, depth, err := tr.descend(p, benchKey(7), &path)
		if err != nil {
			panic(err)
		}
		tr.store.unpin(leaf)
		if depth != 2 {
			panic(fmt.Sprintf("tree of %d keys is %d levels deep, want 3", n, depth+1))
		}
		k, v := benchKey(7), make([]byte, 100)
		buf := make([]byte, 0, len(v))
		left := 0
		count := func(k, v []byte) bool { left--; return left > 0 }
		// Past every benchKey: 0xff… then a counter.
		asc, next := bytes.Repeat([]byte{0xff}, 16), uint64(0)
		ascending := func() error {
			for i := 0; i < 1000; i++ {
				binary.BigEndian.PutUint64(asc[8:], next)
				next++
				if err := tr.Put(p, asc, v[:16], 16); err != nil {
					return err
				}
			}
			return nil
		}
		for _, tc := range []struct {
			op   string
			max  float64
			call func() error
		}{
			{"Get", 1, func() error { _, err := tr.Get(p, k); return err }},
			{"GetAppend", 0, func() error { _, err := tr.GetAppend(p, buf, k); return err }},
			{"Put replacing a value", 0, func() error { return tr.Put(p, k, v, len(v)) }},
			{"Scan of 1000 entries", 0, func() error { left = 1000; return tr.Scan(p, k, count) }},
			{"1000 ascending Puts", 100, ascending},
		} {
			got := testing.AllocsPerRun(50, func() {
				if err := tc.call(); err != nil {
					panic(err)
				}
			})
			if got > tc.max {
				t.Errorf("%s: %v allocations, want at most %v", tc.op, got, tc.max)
			}
		}
	})
}

// TestDescentSteadyStateAllocations holds descents to allocating nothing of
// their own: 10 000 GetAppends of keys spread over a three-level tree, into
// a reused buffer, allocate nothing, and an ascending stream of Puts on a
// cache that evicts allocates once per page it adds, the split's separator,
// plus one in eight for the chunks the cache carves pages from and the drive
// keeps sectors in (the stream measures 1 176 for 1 125 pages). A descent
// hint that copied its fence keys would allocate each time a search replaces
// it: on most of those Gets, and after every split.
func TestDescentSteadyStateAllocations(t *testing.T) {
	const n = 40_000
	tr, in := benchTree(t, n)
	keys := make([][]byte, 10_000)
	for i := range keys {
		keys[i] = benchKey(i * 7919 % n)
	}
	in(func(p *sim.Proc) {
		buf := make([]byte, 0, 100)
		got := testing.AllocsPerRun(1, func() {
			for _, k := range keys {
				if _, err := tr.GetAppend(p, buf, k); err != nil {
					panic(err)
				}
			}
		})
		if got != 0 {
			t.Errorf("10 000 GetAppends: %v allocations, want 0", got)
		}
	})

	env, s := instantStore(t, 64)
	defer env.Close()
	runErr(t, env, func(p *sim.Proc) error {
		tr, err := s.CreateTree(p)
		if err != nil {
			return err
		}
		k, v := make([]byte, 16), make([]byte, 100)
		next := uint64(0)
		ascending := func(puts int) error {
			for end := next + uint64(puts); next < end; next++ {
				binary.BigEndian.PutUint64(k[8:], next)
				if err := tr.Put(p, k, v, len(v)); err != nil {
					return err
				}
			}
			return nil
		}
		if err := ascending(20_000); err != nil {
			return err
		}
		var added float64 // pages, by the last run: the one AllocsPerRun counts
		got := testing.AllocsPerRun(1, func() {
			pages := s.nextPage
			if err = ascending(20_000); err != nil {
				panic(err)
			}
			added = float64(s.nextPage - pages)
		})
		if got > added*9/8 {
			t.Errorf("20 000 ascending Puts: %v allocations for %v pages added, want at most %v", got, added, added*9/8)
		}
		return nil
	})
}
