// Package kvdb implements a page-based B+tree storage engine over a block
// device, standing in for the Berkeley DB access methods of the paper's
// §5.2 experiments.
//
// Pages are cached by an internal bufcache.Cache, so every page miss and
// dirty-page eviction pays real (simulated) disk I/O. Values carry a
// *logical size* used for page-fill accounting: TPC-C rows are stored
// compactly in memory but occupy their spec-defined widths on pages, so the
// tree's page count, fanout and I/O pattern match a production layout
// without materializing half a gigabyte of filler bytes.
package kvdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"tracklog/internal/blockdev"
	"tracklog/internal/bufcache"
	"tracklog/internal/sim"
)

// Errors.
var (
	// ErrNotFound means the key is absent.
	ErrNotFound = errors.New("kvdb: key not found")
	// ErrTooLarge means a key/value pair cannot fit any page.
	ErrTooLarge = errors.New("kvdb: entry exceeds page capacity")
	// ErrCorrupt means a page does not hold what this engine writes: a bad
	// type byte, a cell or pointer that leads outside the page or the store,
	// an invariant Check verifies. It arrives wrapped with the page ID.
	ErrCorrupt = errors.New("kvdb: corrupt page")
)

const (
	leafType     = 1
	internalType = 2

	// nodeHeader: type(1) + nkeys(2) + next/child0(8).
	nodeHeader = 11
	// leafEntryOverhead: klen(2) + vlen(2) + logical(2).
	leafEntryOverhead = 6
	// internalEntryOverhead: klen(2) + child(8).
	internalEntryOverhead = 10

	// capacity is the logical byte budget of a node's entry area.
	capacity = bufcache.PageSize - nodeHeader

	// maxEntry bounds a single entry so two always fit a page.
	maxEntry = capacity / 2

	// maxDepth bounds a descent, so that child pointers corrupted into a
	// cycle end in ErrCorrupt. A tree of this engine's making is far
	// shallower: every level multiplies the page count by at least two.
	maxDepth = 48
)

// metaPage is page 0 of a store: nextPage(8) + ntrees(2) + roots(8 each).
const maxTrees = 64

func corruptf(id int64, format string, args ...any) error {
	return fmt.Errorf("%w %d: %s", ErrCorrupt, id, fmt.Sprintf(format, args...))
}

// Store owns a device, its page cache, and page allocation; trees live
// inside a store.
type Store struct {
	dev      blockdev.Device
	cache    *bufcache.Cache
	nextPage int64
	roots    []int64
	// scratch is where a split lays out a node's cells and the entry that
	// did not fit, and Put a new root's cell; it is used only while no
	// process can yield, so the store's splits share it.
	scratch []byte
}

// Open opens (or initializes) a store on dev with a cache of cachePages
// pages. A device whose page 0 is all zeroes is treated as empty and
// initialized.
func Open(p *sim.Proc, dev blockdev.Device, cachePages int) (*Store, error) {
	s := &Store{dev: dev, cache: bufcache.New(dev, cachePages), scratch: make([]byte, 0, 2*bufcache.PageSize)}
	pg, err := s.cache.Get(p, 0)
	if err != nil {
		return nil, err
	}
	defer s.cache.Release(pg)
	s.nextPage = int64(binary.LittleEndian.Uint64(pg.Data))
	if s.nextPage == 0 {
		// Fresh device.
		s.nextPage = 1
		s.writeMeta(pg)
		return s, nil
	}
	if s.nextPage < 0 || s.nextPage > dev.Sectors()/bufcache.PageSectors {
		return nil, corruptf(0, "%d pages allocated on a device of %d", s.nextPage, dev.Sectors()/bufcache.PageSectors)
	}
	n := int(binary.LittleEndian.Uint16(pg.Data[8:]))
	if n > maxTrees {
		return nil, corruptf(0, "%d trees", n)
	}
	for i := 0; i < n; i++ {
		root := int64(binary.LittleEndian.Uint64(pg.Data[10+8*i:]))
		if root < 1 || root >= s.nextPage {
			return nil, corruptf(0, "tree %d rooted at page %d of %d", i, root, s.nextPage)
		}
		s.roots = append(s.roots, root)
	}
	return s, nil
}

// writeMeta serializes the allocator and catalog into the pinned meta page.
func (s *Store) writeMeta(pg *bufcache.Page) {
	binary.LittleEndian.PutUint64(pg.Data, uint64(s.nextPage))
	binary.LittleEndian.PutUint16(pg.Data[8:], uint16(len(s.roots)))
	for i, r := range s.roots {
		binary.LittleEndian.PutUint64(pg.Data[10+8*i:], uint64(r))
	}
	s.cache.MarkDirty(pg)
}

// syncMeta loads, updates and releases the meta page.
func (s *Store) syncMeta(p *sim.Proc) error {
	pg, err := s.cache.Get(p, 0)
	if err != nil {
		return err
	}
	s.writeMeta(pg)
	s.cache.Release(pg)
	return nil
}

// alloc reserves a fresh page ID.
func (s *Store) alloc(p *sim.Proc) (int64, error) {
	id := s.nextPage
	s.nextPage++
	return id, s.syncMeta(p)
}

// Cache exposes the page cache for stats and checkpointing.
func (s *Store) Cache() *bufcache.Cache { return s.cache }

// Device returns the underlying block device (for reopening in tests and
// tools).
func (s *Store) Device() blockdev.Device { return s.dev }

// NumTrees returns the number of trees in the store.
func (s *Store) NumTrees() int { return len(s.roots) }

// CreateTree adds a new empty tree and returns it.
func (s *Store) CreateTree(p *sim.Proc) (*Tree, error) {
	if len(s.roots) >= maxTrees {
		return nil, fmt.Errorf("kvdb: store full (%d trees)", maxTrees)
	}
	root, err := s.newNode(p, true)
	if err != nil {
		return nil, err
	}
	s.unpin(root)
	s.roots = append(s.roots, root.pg.ID)
	if err := s.syncMeta(p); err != nil {
		return nil, err
	}
	return &Tree{store: s, idx: len(s.roots) - 1}, nil
}

// Tree returns tree number idx (in creation order).
func (s *Store) Tree(idx int) (*Tree, error) {
	if idx < 0 || idx >= len(s.roots) {
		return nil, fmt.Errorf("kvdb: no tree %d", idx)
	}
	return &Tree{store: s, idx: idx}, nil
}

// A node page is type(1) nkeys(2) link(8), then nkeys cells, then zeroes to
// the end of the page. A leaf's link is its right sibling (0 at the end of
// the chain) and its cells are klen(2) vlen(2) logical(2) key value; an
// internal node's link is its leftmost child and its cells are klen(2) key
// child(8), the child holding the keys >= key. Nodes are read and edited
// where they lie, in the pinned page, and every length, offset and page ID
// read from one is checked before it is followed (DESIGN.md §16).

// node is a pinned page viewed as a B+tree node.
type node struct {
	pg   *bufcache.Page
	leaf bool
	n    int // cells
}

// pin pins page id and checks its header.
func (s *Store) pin(p *sim.Proc, id int64) (node, error) {
	if id < 1 || id >= s.nextPage {
		return node{}, corruptf(id, "pointer outside the store's %d pages", s.nextPage)
	}
	pg, err := s.cache.Get(p, id)
	if err != nil {
		return node{}, err
	}
	nd := node{pg: pg, leaf: pg.Data[0] == leafType, n: int(binary.LittleEndian.Uint16(pg.Data[1:]))}
	if !nd.leaf && pg.Data[0] != internalType {
		s.cache.Release(pg)
		return node{}, corruptf(id, "node type %d", pg.Data[0])
	}
	return nd, nil
}

func (s *Store) unpin(nd node) { s.cache.Release(nd.pg) }

// edit takes a second pin on nd, under which it is modified, and marks it
// dirty; the caller unpins twice. The engine this one replaced decoded a
// node under one pin and stored it under another, and the cache's hit count
// and LRU order, which decide the simulated I/O, are held to that sequence.
// nd stays pinned throughout, so offsets found under the first pin hold.
func (s *Store) edit(p *sim.Proc, nd node) error {
	if _, err := s.cache.Get(p, nd.pg.ID); err != nil {
		return err
	}
	s.cache.MarkDirty(nd.pg)
	return nil
}

// newNode allocates a page and returns it pinned, dirty and formatted as an
// empty node. The page is new, so GetZero zeroes it and its frame comes
// without an offset table: only the header needs writing.
func (s *Store) newNode(p *sim.Proc, leaf bool) (node, error) {
	id, err := s.alloc(p)
	if err != nil {
		return node{}, err
	}
	pg, err := s.cache.GetZero(p, id)
	if err != nil {
		return node{}, err
	}
	nd := node{pg: pg, leaf: leaf}
	nd.head(0, 0)
	s.cache.MarkDirty(pg)
	return nd, nil
}

func (nd node) link() int64 { return int64(binary.LittleEndian.Uint64(nd.pg.Data[3:])) }

func (nd node) setCount(n int) { binary.LittleEndian.PutUint16(nd.pg.Data[1:], uint16(n)) }

// head writes the node's header: its type, n cells and its link.
func (nd node) head(n int, link int64) {
	d := nd.pg.Data
	d[0] = internalType
	if nd.leaf {
		d[0] = leafType
	}
	nd.setCount(n)
	binary.LittleEndian.PutUint64(d[3:], uint64(link))
}

// write replaces the node's whole content: n cells, already encoded. used is
// the node's used offset before, nodeHeader for a new node: the bytes past a
// node's cells are always zero, so only those the cells leave are cleared.
// It is the one edit that drops the node's offset table.
func (nd node) write(n int, link int64, cells []byte, used int) {
	nd.head(n, link)
	d := nd.pg.Data
	if end := nodeHeader + copy(d[nodeHeader:], cells); end < used {
		clear(d[end:used])
	}
	nd.pg.Offsets, nd.pg.Fill = nd.pg.Offsets[:0], 0
}

// cell decodes the cell at d[off:] of a leaf or an internal node: its key,
// its payload (the value, or the child's 8 bytes), both aliasing d, its
// accounting size and the offset past it. ok is false when the cell does
// not lie inside d, or claims a logical size below its value's length,
// which would let a page outgrow its accounting.
func cell(d []byte, leaf bool, off int) (key, val []byte, size, end int, ok bool) {
	hdr, vlen, logical := internalEntryOverhead-8, 8, 8
	if leaf {
		hdr = leafEntryOverhead
	}
	if off+hdr > len(d) {
		return
	}
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	if leaf {
		vlen = int(binary.LittleEndian.Uint16(d[off+2:]))
		logical = int(binary.LittleEndian.Uint16(d[off+4:]))
	}
	off += hdr
	end = off + klen + vlen
	if end > len(d) || logical < vlen {
		return
	}
	return d[off : off+klen], d[off+klen : end], hdr + klen + logical, end, true
}

// keyAt returns the key of the cell at d[off:], a cell the checked walk of
// node.offsets found inside d.
func keyAt(d []byte, leaf bool, off int) []byte {
	k := off + internalEntryOverhead - 8
	if leaf {
		k = off + leafEntryOverhead
	}
	return d[k : k+int(binary.LittleEndian.Uint16(d[off:]))]
}

// appendLeafCell encodes one leaf cell.
func appendLeafCell(b, key, val []byte, logical int) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(val)))
	b = binary.LittleEndian.AppendUint16(b, uint16(logical))
	return append(append(b, key...), val...)
}

// appendInternalCell encodes one internal cell.
func appendInternalCell(b, key []byte, child int64) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	return binary.LittleEndian.AppendUint64(append(b, key...), uint64(child))
}

// spot is where a key lies, or would be inserted, in a node.
type spot struct {
	idx      int    // index of the cell at off
	off, end int    // the key's cell is d[off:end]; end == off when the key is absent
	size     int    // accounting bytes of that cell, 0 when absent
	before   []byte // in an internal node, the child before off: the node's link at the first
	used     int    // offset past the last cell
	fill     int    // accounting bytes of all cells
}

func (sp spot) found() bool { return sp.end > sp.off }

// seek bisects the node over its offset table for the first cell whose key
// is >= key, in an internal node > key: the child before that cell is the
// one covering key. An internal cell ends in its child and the node's link
// ends at nodeHeader, so the 8 bytes before the cell found are that child.
func (nd node) seek(key []byte) (spot, error) {
	offs, err := nd.offsets()
	if err != nil {
		return spot{}, err
	}
	d := nd.pg.Data
	i := sort.Search(nd.n, func(i int) bool {
		c := bytes.Compare(keyAt(d, nd.leaf, int(offs[i])), key)
		return c > 0 || c == 0 && nd.leaf
	})
	return nd.at(offs, i, key), nil
}

// seekInsert is seek for a Put into a leaf: a key past the leaf's last one,
// where an ascending stream of inserts lands, is placed there unbisected.
func (nd node) seekInsert(key []byte) (spot, error) {
	offs, err := nd.offsets()
	if err != nil || nd.n == 0 || bytes.Compare(keyAt(nd.pg.Data, true, int(offs[nd.n-1])), key) >= 0 {
		return nd.seek(key)
	}
	return nd.at(offs, nd.n, key), nil
}

// at returns the spot of cell i, the first whose key is >= key in a leaf,
// > key in an internal node.
func (nd node) at(offs []uint16, i int, key []byte) spot {
	d, off := nd.pg.Data, int(offs[i])
	sp := spot{idx: i, off: off, end: off, used: int(offs[nd.n]), fill: int(nd.pg.Fill)}
	if !nd.leaf {
		sp.before = d[off-8 : off]
	} else if i < nd.n {
		if k, _, size, end, _ := cell(d, true, off); bytes.Equal(k, key) {
			sp.end, sp.size = end, size
		}
	}
	return sp
}

// maxCells bounds a node's cells: a leaf cell takes at least its overhead.
const maxCells = capacity / leafEntryOverhead

// offsets returns where the node's cells start, then its used offset, and
// sets the page's Fill. One checked walk finds them the first time the node
// is sought after its page was read or written whole; splice keeps them.
func (nd node) offsets() ([]uint16, error) {
	offs, off, fill := nd.pg.Offsets, nodeHeader, 0
	if len(offs) > 0 {
		return offs, nil
	}
	if offs == nil {
		offs = make([]uint16, 0, maxCells+1) // never grows: inserts stay within a page
	}
	for i := 0; i < nd.n; i++ {
		_, _, size, end, ok := cell(nd.pg.Data, nd.leaf, off)
		if !ok {
			return nil, corruptf(nd.pg.ID, "cell %d of %d runs past the page", i, nd.n)
		}
		offs, off, fill = append(offs, uint16(off)), end, fill+size
	}
	nd.pg.Offsets, nd.pg.Fill = append(offs, uint16(off)), int32(fill)
	return nd.pg.Offsets, nil
}

// child returns the child that covers the key sp was sought for in an
// internal node: the one the cell before it points to.
func (sp spot) child() int64 { return int64(binary.LittleEndian.Uint64(sp.before)) }

// splice makes room at sp for a cell of length bytes and size accounting
// bytes, in place of the key's cell if sp found one; length 0 removes that
// cell. The cells behind it move and what they vacate is zeroed: the bytes
// past a node's cells are always zero. The node's count, fill and offset
// table follow, the offsets behind the edit moving as their cells did.
func (nd node) splice(sp spot, length, size int) {
	d, offs := nd.pg.Data, nd.pg.Offsets
	delta := length - (sp.end - sp.off)
	copy(d[sp.off+length:], d[sp.end:sp.used])
	if delta < 0 {
		clear(d[sp.used+delta : sp.used])
	}
	from := sp.idx + 1
	switch {
	case !sp.found():
		offs = append(offs, 0)
		copy(offs[from:], offs[sp.idx:])
		nd.setCount(nd.n + 1)
	case length == 0:
		offs, from = append(offs[:sp.idx], offs[from:]...), sp.idx
		nd.setCount(nd.n - 1)
	}
	for i := from; i < len(offs); i++ {
		offs[i] += uint16(delta)
	}
	nd.pg.Offsets, nd.pg.Fill = offs, nd.pg.Fill+int32(size-sp.size)
}

// Tree is a B+tree of byte-string keys and values.
type Tree struct {
	store *Store
	idx   int
	// last is what the last descent through each depth learnt there, for
	// the next descent to reuse.
	last [maxDepth]hop
}

// root returns the tree's root page ID.
func (t *Tree) root() int64 { return t.store.roots[t.idx] }

// step is one internal node of a descent: what Put needs to decide, on the
// way back up and before pinning the node again, whether a separator fits.
type step struct {
	id   int64
	used int
}

// hop is what a seek in an internal node found, and holds while the node is
// still the Page pg with edits edits: every key from the key of the cell at
// lo up to, not including, the key of the cell at hi lies under child, and
// the node's used offset is used. lo or hi is 0 where the range is open.
type hop struct {
	pg     *bufcache.Page
	edits  uint32
	lo, hi uint16
	used   int
	child  int64
}

// covers reports whether h holds for key in nd. The fences are read where
// they lie: a page that is the same Page with the same edit count still has
// the bytes, and so the offset table, that h was found in.
func (h *hop) covers(nd node, key []byte) bool {
	d := nd.pg.Data
	return h.pg == nd.pg && h.edits == nd.pg.Edits() &&
		(h.lo == 0 || bytes.Compare(keyAt(d, false, int(h.lo)), key) <= 0) &&
		(h.hi == 0 || bytes.Compare(keyAt(d, false, int(h.hi)), key) > 0)
}

// descend walks from the root to the leaf covering key, one pin at a time,
// and returns that leaf pinned. With path set it records the internal nodes
// passed; depth is their count. Each node is pinned as before, but searched
// only when the tree's last descent through that depth does not cover key.
func (t *Tree) descend(p *sim.Proc, key []byte, path *[maxDepth]step) (leaf node, depth int, err error) {
	s := t.store
	id := t.root()
	for ; depth < maxDepth; depth++ {
		nd, err := s.pin(p, id)
		if err != nil || nd.leaf {
			return nd, depth, err
		}
		h := &t.last[depth]
		if !h.covers(nd, key) {
			sp, err := nd.seek(key)
			if err != nil {
				s.unpin(nd)
				return node{}, 0, err
			}
			*h = hop{pg: nd.pg, edits: nd.pg.Edits(), used: sp.used, child: sp.child()}
			if sp.idx > 0 {
				h.lo = nd.pg.Offsets[sp.idx-1]
			}
			if sp.idx < nd.n {
				h.hi = uint16(sp.off)
			}
		}
		s.unpin(nd)
		if path != nil {
			path[depth] = step{id, h.used}
		}
		id = h.child
	}
	return node{}, 0, corruptf(id, "more than %d levels down", maxDepth)
}

// Get returns a copy of the value stored at key.
func (t *Tree) Get(p *sim.Proc, key []byte) ([]byte, error) { return t.GetAppend(p, nil, key) }

// GetAppend appends the value stored at key to dst and returns the extended
// slice, dst itself with an error: the value leaves the pinned page by this
// one copy, into memory the caller owns and may reuse (DESIGN.md §16).
func (t *Tree) GetAppend(p *sim.Proc, dst, key []byte) ([]byte, error) {
	leaf, _, err := t.descend(p, key, nil)
	if err != nil {
		return dst, err
	}
	defer t.store.unpin(leaf)
	sp, err := leaf.seek(key)
	if err != nil {
		return dst, err
	}
	if !sp.found() {
		return dst, ErrNotFound
	}
	_, v, _, _, _ := cell(leaf.pg.Data, true, sp.off)
	return append(dst, v...), nil
}

// Put inserts or replaces key with value. logicalSize is the page-fill cost
// of the value (pass len(value) for plain data; TPC-C rows pass their spec
// widths).
func (t *Tree) Put(p *sim.Proc, key, value []byte, logicalSize int) error {
	if logicalSize < len(value) {
		logicalSize = len(value)
	}
	if len(key)+logicalSize+leafEntryOverhead > maxEntry {
		return fmt.Errorf("%w: key %d + logical %d", ErrTooLarge, len(key), logicalSize)
	}
	var path [maxDepth]step
	leaf, depth, err := t.descend(p, key, &path)
	if err != nil {
		return err
	}
	sep, right, err := t.putLeaf(p, leaf, key, value, logicalSize)
	for err == nil && right != 0 && depth > 0 {
		depth--
		sep, right, err = t.putSeparator(p, path[depth], sep, right)
	}
	if err != nil || right == 0 {
		return err
	}
	// Root split: grow the tree by one level.
	s := t.store
	root, err := s.newNode(p, false)
	if err != nil {
		return err
	}
	root.write(1, t.root(), appendInternalCell(s.scratch[:0], sep, right), nodeHeader)
	s.unpin(root)
	s.roots[t.idx] = root.pg.ID
	return s.syncMeta(p)
}

// putLeaf writes the entry into the pinned leaf and unpins it. When the
// leaf cannot take it, the leaf splits and putLeaf returns the separator
// and the new right sibling for the parent.
func (t *Tree) putLeaf(p *sim.Proc, leaf node, key, value []byte, logical int) ([]byte, int64, error) {
	s := t.store
	sp, err := leaf.seekInsert(key)
	if err != nil {
		s.unpin(leaf)
		return nil, 0, err
	}
	if sp.fill-sp.size+leafEntryOverhead+len(key)+logical > capacity {
		s.unpin(leaf)
		return t.split(p, leaf.pg.ID, true, entry{key: key, val: value, logical: logical}, sought{leaf.pg, leaf.pg.Edits(), sp})
	}
	defer s.unpin(leaf)
	if err := s.edit(p, leaf); err != nil {
		return nil, 0, err
	}
	defer s.unpin(leaf)
	leaf.splice(sp, leafEntryOverhead+len(key)+len(value), leafEntryOverhead+len(key)+logical)
	appendLeafCell(leaf.pg.Data[:sp.off], key, value, logical) // in place: splice made the room
	return nil, 0, nil
}

// putSeparator adds the cell (sep, right) to the internal node at, as it
// was seen on the way down: in place when it fits, else by splitting the
// node, which returns the next separator and right sibling for the level
// above.
func (t *Tree) putSeparator(p *sim.Proc, at step, sep []byte, right int64) ([]byte, int64, error) {
	s := t.store
	size := internalEntryOverhead + len(sep)
	if at.used+size <= bufcache.PageSize {
		nd, err := s.pin(p, at.id)
		if err != nil {
			return nil, 0, err
		}
		sp, err := nd.seek(sep)
		if err == nil && nd.leaf {
			err = corruptf(at.id, "internal node became a leaf")
		}
		if err != nil {
			s.unpin(nd)
			return nil, 0, err
		}
		if sp.used+size <= bufcache.PageSize {
			nd.splice(sp, size, size)
			appendInternalCell(nd.pg.Data[:sp.off], sep, right) // in place: splice made the room
			s.cache.MarkDirty(nd.pg)
			s.unpin(nd)
			return nil, 0, nil
		}
		// Another process filled the node while this one waited for a page
		// below it.
		s.unpin(nd)
		return t.split(p, at.id, false, entry{key: sep, child: right}, sought{nd.pg, nd.pg.Edits(), sp})
	}
	return t.split(p, at.id, false, entry{key: sep, child: right}, sought{})
}

// entry is the cell a split places: a leaf's key, value and logical size,
// or an internal node's key and child. split encodes it into the store's
// scratch, beside the node's cells, once nothing can yield.
type entry struct {
	key, val []byte
	logical  int
	child    int64
}

func (e entry) appendCell(b []byte, leaf bool) []byte {
	if leaf {
		return appendLeafCell(b, e.key, e.val, e.logical)
	}
	return appendInternalCell(b, e.key, e.child)
}

// sought is where a key was sought in a node that was then the Page pg with
// edits edits. It holds, as the descent's hop does, while the node still is.
type sought struct {
	pg    *bufcache.Page
	edits uint32
	sp    spot
}

// split gives node id a new right sibling and divides between the two the
// node's cells and e, the entry that did not fit. It returns the separator
// and the sibling for the level above. The division is worked out on a copy:
// the overfull node never exists in a page. e's spot is sought again only
// if the node changed since at was.
func (t *Tree) split(p *sim.Proc, id int64, leaf bool, e entry, at sought) ([]byte, int64, error) {
	s := t.store
	right, err := s.newNode(p, leaf)
	if err != nil {
		return nil, 0, err
	}
	if leaf {
		// The decoding engine stored a new leaf twice, the second time to
		// link it into the chain; the second Get is part of the sequence
		// Store.edit describes.
		s.unpin(right)
		if right, err = s.pin(p, right.pg.ID); err != nil {
			return nil, 0, err
		}
	}
	defer s.unpin(right)
	// Both nodes stay pinned from here: nothing that could wait for a page
	// runs between reading the old node and writing the two halves.
	left, err := s.pin(p, id)
	if err != nil {
		return nil, 0, err
	}
	defer s.unpin(left)
	if left.leaf != leaf {
		return nil, 0, corruptf(id, "node changed kind under a split")
	}
	sp := at.sp
	if at.pg != left.pg || at.edits != left.pg.Edits() {
		if sp, err = left.seek(e.key); err != nil {
			return nil, 0, err
		}
	}
	d := left.pg.Data
	cells := e.appendCell(append(s.scratch[:0], d[nodeHeader:sp.off]...), leaf)
	_, _, entrySize, _, _ := cell(cells, leaf, sp.off-nodeHeader)
	cells = append(cells, d[sp.end:sp.used]...)
	n := left.n
	if !sp.found() {
		n++
	}

	// A leaf's left half takes cells until it holds more than half the
	// fill, an internal node's half the keys; either stops short of a cell
	// that would put it over a page, which the halfway mark can lie past
	// when entries exceed a third of a page.
	half := (sp.fill - sp.size + entrySize) / 2
	cut, off, run := 0, 0, 0
	for cut < n && (leaf && run <= half || !leaf && cut < n/2) {
		_, _, size, end, _ := cell(cells, leaf, off)
		if run += size; run > capacity {
			break
		}
		cut, off = cut+1, end
	}
	if leaf && (cut == 0 || cut == n) {
		cut, off = n/2, 0
		for i := 0; i < cut; i++ {
			_, _, _, off, _ = cell(cells, leaf, off)
		}
	}
	// The cell at the cut starts a leaf's right half; an internal node's
	// moves up, its child becoming the right half's leftmost.
	k, v, _, end, _ := cell(cells, leaf, off)
	rn, rlink, rcells, llink := n-cut, left.link(), cells[off:], right.pg.ID
	if !leaf {
		rn, rlink, rcells, llink = n-cut-1, int64(binary.LittleEndian.Uint64(v)), cells[end:], left.link()
	}
	if off > capacity || len(rcells) > capacity {
		return nil, 0, corruptf(id, "halves of %d and %d bytes", off, len(rcells))
	}
	sep := bytes.Clone(k)
	right.write(rn, rlink, rcells, nodeHeader)
	left.write(cut, llink, cells[:off], sp.used)
	s.cache.MarkDirty(right.pg)
	s.cache.MarkDirty(left.pg)
	return sep, right.pg.ID, nil
}

// Delete removes key. Nodes are not rebalanced (lazy deletion, standard for
// the workloads here: TPC-C only deletes new-order rows).
func (t *Tree) Delete(p *sim.Proc, key []byte) error {
	s := t.store
	leaf, _, err := t.descend(p, key, nil)
	if err != nil {
		return err
	}
	defer s.unpin(leaf)
	sp, err := leaf.seek(key)
	if err != nil {
		return err
	}
	if !sp.found() {
		return ErrNotFound
	}
	if err := s.edit(p, leaf); err != nil {
		return err
	}
	defer s.unpin(leaf)
	leaf.splice(sp, 0, 0)
	return nil
}

// Scan calls fn for each key >= from in order until fn returns false. The
// slices fn receives alias the pinned page: they are valid until fn
// returns, and fn must not write to the tree.
func (t *Tree) Scan(p *sim.Proc, from []byte, fn func(key, value []byte) bool) error {
	s := t.store
	leaf, _, err := t.descend(p, from, nil)
	if err != nil {
		return err
	}
	sp, err := leaf.seek(from)
	if err != nil {
		s.unpin(leaf)
		return err
	}
	for visited := int64(1); ; visited++ {
		d := leaf.pg.Data
		for i, off := sp.idx, sp.off; i < leaf.n; i++ {
			k, v, _, end, ok := cell(d, true, off)
			if !ok {
				s.unpin(leaf)
				return corruptf(leaf.pg.ID, "cell %d of %d runs past the page", i, leaf.n)
			}
			if !fn(k, v) {
				s.unpin(leaf)
				return nil
			}
			off = end
		}
		next := leaf.link()
		s.unpin(leaf)
		if next == 0 {
			return nil
		}
		if visited >= s.nextPage {
			return corruptf(next, "leaf chain longer than the store's %d pages", s.nextPage)
		}
		if leaf, err = s.pin(p, next); err != nil {
			return err
		}
		if !leaf.leaf {
			s.unpin(leaf)
			return corruptf(next, "internal node on the leaf chain")
		}
		sp = spot{off: nodeHeader}
	}
}

// Check validates the tree's structural invariants, returning the first
// violation as an ErrCorrupt: cells inside their page and within its
// capacity, keys strictly sorted within nodes, all leaves at equal depth,
// every key within its parent's separator bounds, and the leaf chain in
// left-to-right order. Intended for tests.
func (t *Tree) Check(p *sim.Proc) error {
	s := t.store
	leafDepth := -1
	var prevLeafKey []byte
	visited := int64(0)
	var walk func(id int64, depth int, lo, hi []byte) error
	walk = func(id int64, depth int, lo, hi []byte) error {
		if visited++; visited >= s.nextPage || depth >= maxDepth {
			return corruptf(id, "reached at depth %d as page %d of a store of %d", depth, visited, s.nextPage)
		}
		nd, err := s.pin(p, id)
		if err != nil {
			return err
		}
		// The walk works on a copy: the separators must outlive the pin,
		// which is dropped before the children are visited, one pin at a
		// time like every other descent.
		d, link := bytes.Clone(nd.pg.Data), nd.link()
		s.unpin(nd)

		var prev []byte
		off, fill := nodeHeader, 0
		for i := 0; i < nd.n; i++ {
			k, _, size, end, ok := cell(d, nd.leaf, off)
			if !ok {
				return corruptf(id, "cell %d of %d runs past the page", i, nd.n)
			}
			off, fill = end, fill+size
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				return corruptf(id, "keys out of order at %d", i)
			}
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return corruptf(id, "key %q below separator %q", k, lo)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return corruptf(id, "key %q not below separator %q", k, hi)
			}
			if nd.leaf {
				if prevLeafKey != nil && bytes.Compare(prevLeafKey, k) >= 0 {
					return corruptf(id, "leaf chain out of order at %q", k)
				}
				prevLeafKey = k
			}
			prev = k
		}
		if fill > capacity {
			return corruptf(id, "overfull (%d)", fill)
		}
		if nd.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return corruptf(id, "leaf at depth %d, want %d", depth, leafDepth)
			}
			return nil
		}
		child, clo := link, lo
		off = nodeHeader
		for i := 0; i < nd.n; i++ {
			k, next, _, end, _ := cell(d, false, off)
			if err := walk(child, depth+1, clo, k); err != nil {
				return err
			}
			child, clo, off = int64(binary.LittleEndian.Uint64(next)), k, end
		}
		return walk(child, depth+1, clo, hi)
	}
	return walk(t.root(), 0, nil, nil)
}
