package kvdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"sort"
	"testing"

	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// instantStore opens a store on a device that takes no simulated time.
func instantStore(t testing.TB, cachePages int) (*sim.Env, *Store) {
	t.Helper()
	env := sim.NewEnv()
	dev := disk.NewInstantDev(disk.New(env, disk.WDCaviar()), blockdev.DevID{Major: 3})
	var s *Store
	var err error
	run(env, func(p *sim.Proc) { s, err = Open(p, dev, cachePages) })
	if err != nil {
		t.Fatal(err)
	}
	return env, s
}

// runErr runs fn as a simulated process and fails the test with what it
// returns. A process must not call t.Fatal: Goexit on its goroutine would
// leave the kernel waiting for it.
func runErr(t testing.TB, env *sim.Env, fn func(p *sim.Proc) error) {
	t.Helper()
	var err error
	run(env, func(p *sim.Proc) { err = fn(p) })
	if err != nil {
		t.Fatal(err)
	}
}

// genKey is key number id of the generated universe. A key's length is a
// function of its number, so a second Put of the same number replaces; every
// 97th key is long enough that two of them fill a page.
func genKey(id int) []byte {
	n := 8 + id*7%40
	if id%97 == 0 {
		n = 900 + id%100
	}
	k := make([]byte, n)
	copy(k, fmt.Sprintf("k%06d", id))
	for i := 7; i < n; i++ {
		k[i] = byte('a' + (id+i)%26)
	}
	return k
}

// genValue draws a value and its logical size for key; one draw in eight
// fills the entry to maxCell accounting bytes exactly.
func genValue(rng *sim.Rand, key []byte, maxCell int) ([]byte, int) {
	room := maxCell - leafEntryOverhead - len(key)
	n := rng.Intn(200)
	switch rng.Intn(8) {
	case 0:
		n = room
	case 1:
		n = rng.Intn(room + 1)
	}
	if n > room {
		n = room
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(rng.Intn(256))
	}
	logical := 0
	if rng.Intn(3) == 0 {
		logical = n + rng.Intn(room-n+1)
	}
	return v, logical
}

// TestModel drives seeded random operations against a sorted-map oracle, on
// a cache so small that pages are evicted in the middle of an operation and
// on one that never evicts.
func TestModel(t *testing.T) {
	for _, cachePages := range []int{4, 4096} {
		t.Run(fmt.Sprintf("cache=%d", cachePages), func(t *testing.T) {
			env, s := instantStore(t, cachePages)
			defer env.Close()
			runErr(t, env, func(p *sim.Proc) error { return modelOps(p, s, 4000, 600) })
		})
	}
}

// TestSplitSeeksAgainAfterAnEdit: a put that splits a leaf waits, for the
// new page, on the write-back of a dirty victim; meanwhile a second put
// edits the same leaf in place. The split must place its entry by the leaf
// as it is then, not where it was sought before the wait, and keep the
// other put's key.
func TestSplitSeeksAgainAfterAnEdit(t *testing.T) {
	env, s := newRig(t, 3) // the meta page and two leaves: a new page evicts
	defer env.Close()
	var full, other *Tree
	var keys []string
	runErr(t, env, func(p *sim.Proc) (err error) {
		if full, err = s.CreateTree(p); err != nil {
			return err
		}
		for i := 0; i < 30; i++ { // ~3 000 of the leaf's 4 085 bytes
			keys = append(keys, fmt.Sprintf("m%03d", i))
			if err := full.Put(p, []byte(keys[i]), val(i), 90); err != nil {
				return err
			}
		}
		if other, err = s.CreateTree(p); err != nil {
			return err
		}
		return other.Put(p, key(0), val(0), 0) // the least recently used page, dirty
	})
	split := false
	env.Go("splitter", func(p *sim.Proc) {
		if err := full.Put(p, []byte("z"), nil, 1500); err != nil {
			t.Error(err)
		}
		split = true
	})
	env.Go("editor", func(p *sim.Proc) {
		if split {
			t.Error("the split did not wait for a page")
		}
		if err := full.Put(p, []byte("a"), val(1), 0); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	keys = append(append([]string{"a"}, keys...), "z")
	runErr(t, env, func(p *sim.Proc) error {
		if err := full.Check(p); err != nil {
			return err
		}
		var got []string
		err := full.Scan(p, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
		if fmt.Sprint(got) != fmt.Sprint(keys) {
			return fmt.Errorf("tree holds %q, want %q", got, keys)
		}
		return err
	})
}

func modelOps(p *sim.Proc, s *Store, ops, universe int) error {
	tr, err := s.CreateTree(p)
	if err != nil {
		return err
	}
	rng := sim.NewRand(uint64(s.Cache().Capacity()))
	oracle := map[string][]byte{}
	sorted := func() []string {
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	// scan checks up to limit entries from key from against the oracle.
	scan := func(from []byte, limit int) error {
		keys := sorted()
		at := sort.SearchStrings(keys, string(from))
		n, bad := 0, ""
		err := tr.Scan(p, from, func(gk, gv []byte) bool {
			if at+n >= len(keys) || string(gk) != keys[at+n] || !bytes.Equal(gv, oracle[keys[at+n]]) {
				bad = fmt.Sprintf("entry %d is %.20q", n, gk)
				return false
			}
			n++
			return n < limit
		})
		if want := min(limit, len(keys)-at); err != nil || bad != "" || n != want {
			return fmt.Errorf("scan visited %d entries, want %d: %s %v", n, want, bad, err)
		}
		return nil
	}
	for i := 1; i <= ops; i++ {
		k := genKey(rng.Intn(universe))
		want, present := oracle[string(k)]
		switch op := rng.Intn(10); {
		case op < 5:
			v, logical := genValue(rng, k, maxEntry)
			if err := tr.Put(p, k, v, logical); err != nil {
				return fmt.Errorf("op %d: put: %w", i, err)
			}
			oracle[string(k)] = v
		case op < 7:
			err := tr.Delete(p, k)
			if present != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
				return fmt.Errorf("op %d: delete of present=%v key: %v", i, present, err)
			}
			delete(oracle, string(k))
		case op < 9:
			got, err := tr.Get(p, k)
			if present != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
				return fmt.Errorf("op %d: get of present=%v key: %v", i, present, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("op %d: get returned %d bytes, want %d", i, len(got), len(want))
			}
		default:
			if err := scan(k, 1+rng.Intn(30)); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
		if i%100 == 0 {
			if err := tr.Check(p); err != nil {
				return fmt.Errorf("after %d ops: %w", i, err)
			}
		}
	}
	// Everything the oracle holds comes back from one whole scan, in order.
	return scan(nil, len(oracle)+1)
}

// linearSeek is the walk nodes were sought by before they kept an offset
// table: the oracle TestBisectionMatchesWalk holds the bisection to. It finds
// the first cell whose key is >= key in a leaf, > key in an internal node,
// and carries on to the last cell for the node's fill.
func linearSeek(nd node, key []byte) (spot, error) {
	d := nd.pg.Data
	sp := spot{idx: -1}
	if !nd.leaf {
		sp.before = d[3:nodeHeader]
	}
	off := nodeHeader
	for i := 0; i < nd.n; i++ {
		k, v, size, end, ok := cell(d, nd.leaf, off)
		if !ok {
			return sp, corruptf(nd.pg.ID, "cell %d of %d runs past the page", i, nd.n)
		}
		if sp.idx < 0 {
			switch c := bytes.Compare(k, key); {
			case c > 0 || c == 0 && nd.leaf:
				sp.idx, sp.off, sp.end = i, off, off
				if c == 0 {
					sp.end, sp.size = end, size
				}
			case !nd.leaf:
				sp.before = v
			}
		}
		sp.fill += size
		off = end
	}
	if sp.idx < 0 {
		sp.idx, sp.off, sp.end = nd.n, off, off
	}
	sp.used = off
	return sp, nil
}

// longKey is key id of TestBisectionMatchesWalk: ordered by id and 400-599
// bytes long, so that a few hundred keys make a tree four levels deep.
func longKey(id int) []byte {
	k := fmt.Appendf(nil, "%08d", id)
	for len(k) < 400+id%200 {
		k = append(k, byte('a'+len(k)%26))
	}
	return k
}

// TestBisectionMatchesWalk drives a seeded mix of ascending appends, random
// inserts, replacements and deletes, and after every operation seeks in every
// node by bisection and by the linear walk, at each key, just above each,
// below the first and above the last: the spots must be equal. Before that it
// holds every kept offset table and fill it can see, of pages resident since
// the last walk and of each node the walk pins before seeking in it, to ones
// rebuilt from the page's bytes. After it, at each internal node's probe
// keys, a descent with the hint the tree has must reach the same leaf by the
// same steps as one with none. On a 6-page cache pages are evicted and read
// again between operations; on a large one a table lives through every edit
// that must keep it or drop it.
func TestBisectionMatchesWalk(t *testing.T) {
	for _, cachePages := range []int{6, 4096} {
		t.Run(fmt.Sprintf("cache=%d", cachePages), func(t *testing.T) {
			env, s := instantStore(t, cachePages)
			defer env.Close()
			runErr(t, env, func(p *sim.Proc) error { return bisectionOps(p, s, 2000) })
		})
	}
}

func bisectionOps(p *sim.Proc, s *Store, ops int) error {
	tr, err := s.CreateTree(p)
	if err != nil {
		return err
	}
	rng := sim.NewRand(uint64(s.Cache().Capacity()))
	var keys [][]byte // what the tree holds
	held := map[string]bool{}
	put := func(k []byte) error {
		if !held[string(k)] {
			held[string(k)] = true
			keys = append(keys, k)
		}
		return tr.Put(p, k, k[:1+rng.Intn(16)], 0)
	}
	next, depth := 1_000_000, 0 // ascending appends count up from above the random ids
	seen := map[int64]*bufcache.Page{}
	for i := 1; i <= ops; i++ {
		switch op := rng.Intn(10); {
		case op < 3:
			err = put(longKey(next))
			next++
		case op < 6:
			err = put(longKey(rng.Intn(next)))
		case len(keys) == 0:
		case op < 8:
			err = put(keys[rng.Intn(len(keys))])
		default:
			j := rng.Intn(len(keys))
			k := keys[j]
			keys[j], keys = keys[len(keys)-1], keys[:len(keys)-1]
			delete(held, string(k))
			err = tr.Delete(p, k)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if depth, err = sameSeeks(p, s, tr, seen); err != nil {
			return fmt.Errorf("after op %d: %w", i, err)
		}
	}
	if depth < 3 {
		return fmt.Errorf("%d internal levels, want at least 3", depth)
	}
	return tr.Check(p)
}

// sameSeeks compares bisection and walk in every node of tr, level by level,
// then, at the same probe keys, tr's descents with the hint it has and with
// none, and returns the number of internal levels. seen holds the pages the
// last walk pinned; those still resident have their tables checked first.
func sameSeeks(p *sim.Proc, s *Store, tr *Tree, seen map[int64]*bufcache.Page) (int, error) {
	for _, pg := range seen {
		if err := keptTableHolds(pg); err != nil {
			return 0, err
		}
	}
	clear(seen)
	level := []int64{tr.root()}
	var probes [][]byte
	for depth := 0; ; depth++ {
		var below []int64
		for _, id := range level {
			nd, err := s.pin(p, id)
			if err != nil {
				return depth, err
			}
			seen[id] = nd.pg
			if err = keptTableHolds(nd.pg); err == nil {
				below, probes, err = sameSeeksIn(nd, below, probes)
			}
			s.unpin(nd)
			if err != nil {
				return depth, err
			}
		}
		if len(below) == 0 {
			return depth, sameDescents(p, tr, probes)
		}
		level = below
	}
}

// keptTableHolds checks the offset table and fill kept on a resident page, if
// it has one, against a table rebuilt from the page's bytes.
func keptTableHolds(pg *bufcache.Page) error {
	if pg.Data == nil || len(pg.Offsets) == 0 {
		return nil // evicted, or no table since the page was read or written whole
	}
	nd := node{pg: pg, leaf: pg.Data[0] == leafType, n: int(binary.LittleEndian.Uint16(pg.Data[1:]))}
	want, off, fill := []uint16{}, nodeHeader, 0
	for i := 0; i < nd.n; i++ {
		_, _, size, end, ok := cell(pg.Data, nd.leaf, off)
		if !ok {
			return corruptf(pg.ID, "cell %d of %d runs past the page", i, nd.n)
		}
		want, off, fill = append(want, uint16(off)), end, fill+size
	}
	if want = append(want, uint16(off)); !slices.Equal(pg.Offsets, want) || int(pg.Fill) != fill {
		return fmt.Errorf("page %d keeps offsets %v fill %d, its bytes give %v fill %d", pg.ID, pg.Offsets, pg.Fill, want, fill)
	}
	return nil
}

// sameSeeksIn compares bisection and walk in one node, at each key, just
// above each, below the first and above the last, appends an internal
// node's children to below and those probe keys to probes.
func sameSeeksIn(nd node, below []int64, probes [][]byte) ([]int64, [][]byte, error) {
	d, off, from := nd.pg.Data, nodeHeader, len(probes)
	probes = append(probes, nil, []byte{0xff})
	if !nd.leaf {
		below = append(below, nd.link())
	}
	for i := 0; i < nd.n; i++ {
		k, v, _, end, _ := cell(d, nd.leaf, off)
		probes = append(probes, k, append(bytes.Clone(k), 0))
		if !nd.leaf {
			below = append(below, int64(binary.LittleEndian.Uint64(v)))
		}
		off = end
	}
	where := func(sp spot) [7]int {
		return [7]int{sp.idx, sp.off, sp.end, sp.size, sp.used, sp.fill, cap(d) - cap(sp.before)}
	}
	for _, key := range probes[from:] {
		got, err := nd.seek(key)
		if err != nil {
			return below, probes, err
		}
		want, err := linearSeek(nd, key)
		if err != nil {
			return below, probes, err
		}
		if where(got) != where(want) {
			return below, probes, fmt.Errorf("page %d at %.12q: bisection %v, walk %v (idx off end size used fill before)", nd.pg.ID, key, where(got), where(want))
		}
	}
	if nd.leaf {
		probes = probes[:from] // descents differ only at the separators' bounds
	}
	return below, probes, nil
}

// sameDescents descends to each probe key twice, with the hint tr's
// operations and earlier descents left and with none: both must reach the
// same leaf through the same steps.
func sameDescents(p *sim.Proc, tr *Tree, probes [][]byte) error {
	cold := &Tree{store: tr.store, idx: tr.idx}
	var hinted, unhinted [maxDepth]step
	for _, key := range probes {
		cold.last = [maxDepth]hop{}
		got, depth, err := tr.descend(p, key, &hinted)
		if err != nil {
			return err
		}
		tr.store.unpin(got)
		want, wantDepth, err := cold.descend(p, key, &unhinted)
		if err != nil {
			return err
		}
		tr.store.unpin(want)
		if got.pg.ID != want.pg.ID || !slices.Equal(hinted[:depth], unhinted[:wantDepth]) {
			return fmt.Errorf("descent to %.12q: hinted reached leaf %d by %v, unhinted leaf %d by %v", key, got.pg.ID, hinted[:depth], want.pg.ID, unhinted[:wantDepth])
		}
	}
	return nil
}

// goldenState is what TestGoldenBehaviour pins.
type goldenState struct {
	nextPage int64
	roots    []int64
	heights  []int
	stats    bufcache.Stats
	reads    uint64 // FNV-64a over every Get and Scan result, in order
	pages    uint64 // FNV-64a over page images 0..nextPage-1 after FlushAll
}

// golden was recorded from the decode-per-visit engine this one replaced
// (commit d19b455), so it holds the page allocation, the cache access
// sequence and every page image to what that engine did. Entries stay within
// a third of a page: past that the old engine's split could leave its left
// half overfull, which TestModel now covers and no recording can.
var golden = goldenState{
	nextPage: 395,
	roots:    []int64{263, 344, 267},
	heights:  []int{3, 3, 3},
	stats:    bufcache.Stats{Hits: 11675, Misses: 6250, Evictions: 6620, DirtyWrites: 3462},
	reads:    30542450331889705,
	pages:    8847695553602241017,
}

// goldenAppends was recorded from the engine before descents reused their
// last path and leaf appends skipped the bisection (commit 1f1fa8b), so it
// holds those fast paths to the pages and pins of the searches they skip.
var goldenAppends = goldenState{
	nextPage: 637,
	roots:    []int64{76, 65},
	heights:  []int{3, 3},
	stats:    bufcache.Stats{Hits: 15280, Misses: 2389, Evictions: 3001, DirtyWrites: 1313},
	reads:    18382574025495530948,
	pages:    6986665585640511619,
}

// TestGoldenBehaviour runs fixed sequences on a 24-page cache and compares
// what the engine is contracted to keep: which pages it allocates, how it
// walks the cache, and the bytes it leaves. "mixed" is 5 000 random
// operations over three trees; "appends" is 4 000 operations over two trees,
// most of them Puts of each tree's next ascending key, the rest Gets,
// Deletes, Scans and replacements of keys already put.
func TestGoldenBehaviour(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		goldenRun(t, 3, golden, func(p *sim.Proc, trees []*Tree, reads hash.Hash64) error {
			rng := sim.NewRand(2002)
			for i := 0; i < 5000; i++ {
				tr := trees[rng.Intn(3)]
				k := genKey(rng.Intn(900))
				if err := goldenOp(p, tr, rng.Intn(20), rng, k, reads); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
			return nil
		})
	})
	t.Run("appends", func(t *testing.T) {
		goldenRun(t, 2, goldenAppends, func(p *sim.Proc, trees []*Tree, reads hash.Hash64) error {
			rng := sim.NewRand(61)
			next := make([]int, len(trees))
			for i := 0; i < 4000; i++ {
				j := rng.Intn(len(trees))
				op, id := rng.Intn(40), next[j]
				if op < 28 {
					op, next[j] = 0, id+1 // a Put past the tree's last key
				} else {
					op, id = op-20, rng.Intn(id+1) // a Put, Delete, Get or Scan below it
				}
				if err := goldenOp(p, trees[j], op, rng, appendKey(id), reads); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			}
			return nil
		})
	})
}

// appendKey is key id of the "appends" sequence: ordered by id, 9 to 208
// bytes long, so that internal nodes hold few enough keys to split.
func appendKey(id int) []byte {
	k := fmt.Appendf(nil, "a%08d", id)
	for len(k) < 9+id*37%200 {
		k = append(k, byte('a'+len(k)%26))
	}
	return k
}

// goldenOp applies operation op of TestGoldenBehaviour's mix to key k: below
// 12 a Put, then a Delete, below 19 a Get, else a Scan of up to 40 entries;
// what the reads return goes into reads.
func goldenOp(p *sim.Proc, tr *Tree, op int, rng *sim.Rand, k []byte, reads hash.Hash64) error {
	var err error
	switch {
	case op < 12:
		v, logical := genValue(rng, k, capacity/3)
		err = tr.Put(p, k, v, logical)
	case op < 15:
		err = tr.Delete(p, k)
	case op < 19:
		var v []byte
		v, err = tr.Get(p, k)
		reads.Write(v)
	default:
		n := 0
		err = tr.Scan(p, k, func(gk, gv []byte) bool {
			reads.Write(gk)
			reads.Write(gv)
			n++
			return n < 40
		})
	}
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// goldenRun creates ntrees trees in a fresh store on a 24-page cache, runs
// ops on them and compares the state it leaves with want.
func goldenRun(t *testing.T, ntrees int, want goldenState, ops func(p *sim.Proc, trees []*Tree, reads hash.Hash64) error) {
	env, s := instantStore(t, 24)
	defer env.Close()
	var got goldenState
	runErr(t, env, func(p *sim.Proc) error {
		var trees []*Tree
		for i := 0; i < ntrees; i++ {
			tr, err := s.CreateTree(p)
			if err != nil {
				return err
			}
			trees = append(trees, tr)
		}
		reads := fnv.New64a()
		if err := ops(p, trees, reads); err != nil {
			return err
		}
		got.nextPage, got.roots, got.stats = s.nextPage, s.roots, s.Cache().Stats()
		got.stats.PagesResident = 0
		got.reads = reads.Sum64()

		for _, tr := range trees {
			if err := tr.Check(p); err != nil {
				return err
			}
		}
		if err := s.Cache().FlushAll(p); err != nil {
			return err
		}
		// Heights and images come from the device, decoded here by hand: the
		// type byte, and an internal node's leftmost child at offset 3.
		image := func(id int64) []byte {
			data, err := s.Device().Read(p, id*bufcache.PageSectors, bufcache.PageSectors)
			if err != nil {
				panic(err)
			}
			return data
		}
		for _, root := range s.roots {
			h := 1
			for d := image(root); d[0] == internalType; d = image(int64(binary.LittleEndian.Uint64(d[3:]))) {
				h++
			}
			got.heights = append(got.heights, h)
		}
		pages := fnv.New64a()
		for id := int64(0); id < s.nextPage; id++ {
			pages.Write(image(id))
		}
		got.pages = pages.Sum64()
		return nil
	})
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("behaviour moved:\n got %+v\nwant %+v", got, want)
	}
}
