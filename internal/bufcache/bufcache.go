// Package bufcache implements a fixed-capacity page cache with pin/dirty
// semantics over a block device, modelling the role the EXT2 buffer cache
// plays in the paper's system under test: reads miss to the data disk, dirty
// pages are written back on eviction or explicit flush.
package bufcache

import (
	"fmt"
	"slices"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// PageSectors is the number of sectors per cache page (4 KiB pages).
const PageSectors = 8

// PageSize is the page size in bytes.
const PageSize = PageSectors * geom.SectorSize

// Page is a cached page frame. Callers must hold a pin (from Get) while
// touching Data and must Release it afterwards. Every miss gets a Page no one
// has held before, carved from the cache's slab, so a stale one never takes
// on another page's identity; eviction hands its Data to the next page
// faulted in and leaves it nil.
type Page struct {
	ID   int64
	Data []byte
	pins int
	// writes counts device writes of Data in flight: until they return, an
	// eviction gives Data to no other page. edits counts MarkDirty calls, so
	// a write-back knows whether the page was edited while it wrote.
	writes int32
	edits  uint32
	// Offsets is kvdb's table of a node's cell offsets and Fill the cells'
	// accounting bytes, kept while the page is cached and through kvdb's
	// in-place edits. The cache never reads them; a page faulted in takes its
	// victim's array emptied, so it starts without a table.
	Offsets []uint16
	Fill    int32
	dirty   bool // beside Fill: a Page is 96 bytes, and every miss carves one
	// prev and next link the page into its cache's LRU ring.
	prev, next *Page
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses  int64
	Evictions     int64
	DirtyWrites   int64 // device writes due to eviction or flush
	PagesResident int
}

// Cache is a fixed-size page cache over one device. Not safe for real
// concurrency; simulation processes interleave cooperatively.
type Cache struct {
	dev      blockdev.Device
	capacity int
	// pages is the page table: the resident page of each ID, nil for the
	// rest. It grows to the highest ID faulted in (kvdb's IDs are dense from
	// 0), and resident counts its pages.
	pages    []*Page
	resident int
	// filling counts frames makeRoom has handed out whose fill has not
	// landed yet; they count against capacity. landed wakes a miss waiting
	// for one of them.
	filling int
	landed  *sim.Cond
	// lru is the sentinel of a ring of the resident pages: lru.next is the
	// most recently used, lru.prev the least.
	lru   Page
	stats Stats
	// frames is where every miss's Page comes from. A Page is never reused:
	// an evicted one stays in its chunk, nil Data, for any stale handle.
	frames sim.Slab[Page]
}

// New returns a cache of capacity pages over dev.
func New(dev blockdev.Device, capacity int) *Cache {
	if capacity < 1 {
		panic("bufcache: capacity must be >= 1")
	}
	c := &Cache{dev: dev, capacity: capacity}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Capacity returns the cache size in pages.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.PagesResident = c.resident
	return s
}

// pageLBA returns the device LBA of a page.
func pageLBA(id int64) int64 { return id * PageSectors }

// Get pins and returns the page, reading it from the device on a miss.
func (c *Cache) Get(p *sim.Proc, id int64) (*Page, error) { return c.get(p, id, true) }

// GetZero pins a page frame without reading the device, for pages about to
// be fully overwritten (new allocations). It counts neither hit nor miss.
func (c *Cache) GetZero(p *sim.Proc, id int64) (*Page, error) { return c.get(p, id, false) }

// get pins and returns page id: the resident page, or else a new one, read
// from the device if read is set and zeroed if not. An ID outside the device
// fails before it can grow the table (a resident page passed that check).
func (c *Cache) get(p *sim.Proc, id int64, read bool) (*Page, error) {
	if uint64(id) < uint64(len(c.pages)) && c.pages[id] != nil {
		if read {
			c.stats.Hits++
		}
		return c.pin(c.pages[id]), nil
	}
	if err := blockdev.CheckRange(c.dev.Sectors()/PageSectors, id, 1); err != nil {
		return nil, fmt.Errorf("bufcache: page %d: %w", id, err)
	}
	if n := int(id) + 1; n > len(c.pages) {
		c.pages = slices.Grow(c.pages, n-len(c.pages))[:n]
	}
	if read {
		c.stats.Misses++
	}
	pg, err := c.makeRoom(p)
	if err != nil {
		return nil, err
	}
	if read {
		pg.Data, err = blockdev.ReadOpts(p, c.dev, pageLBA(id), PageSectors, blockdev.Options{Into: pg.Data})
	} else if pg.Data == nil {
		pg.Data = make([]byte, PageSize)
	} else {
		clear(pg.Data)
	}
	c.filling--
	if c.landed != nil {
		c.landed.Broadcast()
	}
	if err != nil {
		return nil, fmt.Errorf("bufcache: page %d: %w", id, err)
	}
	// An eviction's write or the read may have yielded; another process may
	// have faulted the same page in meanwhile. Its frame is then given back.
	if resident := c.pages[id]; resident != nil {
		return c.pin(resident), nil
	}
	pg.ID, c.pages[id] = id, pg
	c.resident++
	return c.pin(pg), nil
}

// pin pins pg and makes it the most recently used page.
func (c *Cache) pin(pg *Page) *Page {
	pg.pins++
	c.touch(pg)
	return pg
}

// makeRoom evicts LRU unpinned pages until a frame is free and returns the
// new page to fill it, the frame reserved (filling) until the caller's fill
// lands. While every frame is pinned or being filled, it waits for a fill to
// land. A dirty victim is written back first and evicted only if it is still
// resident, unpinned and clean once the write returns. The new page takes
// the last victim's emptied offset array and its data, unless another
// process's write of that data is still in flight; then it gets no data, and
// the caller allocates. The page is carved once a frame is free, so a failed
// call carves none.
func (c *Cache) makeRoom(p *sim.Proc) (*Page, error) {
	var data []byte
	var offsets []uint16
	for c.resident+c.filling >= c.capacity {
		victim := c.lruVictim()
		if victim == nil {
			if c.filling == 0 {
				return nil, fmt.Errorf("bufcache: all %d pages pinned", c.capacity)
			}
			if c.landed == nil {
				c.landed = sim.NewCond(p.Env())
			}
			c.landed.Wait(p)
			continue
		}
		if victim.dirty {
			if err := c.writePage(p, victim); err != nil {
				return nil, err
			}
			// The write yielded: another process may have evicted, pinned
			// or edited the victim meanwhile. Pick again if so.
			if c.pages[victim.ID] != victim || victim.pins > 0 || victim.dirty {
				continue
			}
		}
		c.stats.Evictions++
		victim.unlink()
		c.pages[victim.ID] = nil
		c.resident--
		if victim.writes == 0 {
			data = victim.Data
		}
		offsets = victim.Offsets[:0]
		victim.Data, victim.Offsets = nil, nil
	}
	c.filling++
	pg := c.frames.New()
	pg.Data, pg.Offsets = data, offsets
	return pg, nil
}

// lruVictim returns the least recently used unpinned page, or nil.
func (c *Cache) lruVictim() *Page {
	for pg := c.lru.prev; pg != &c.lru; pg = pg.prev {
		if pg.pins == 0 {
			return pg
		}
	}
	return nil
}

// touch makes pg, resident or new, the most recently used page.
func (c *Cache) touch(pg *Page) {
	pg.unlink()
	pg.prev, pg.next = &c.lru, c.lru.next
	c.lru.next.prev, c.lru.next = pg, pg
}

// unlink takes pg off its LRU ring, if it is on one (touch passes new pages).
func (pg *Page) unlink() {
	if pg.next == nil {
		return
	}
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

// writePage writes pg to the device. The page stays dirty if it was edited
// while the write was in flight: the write may have missed the edit.
func (c *Cache) writePage(p *sim.Proc, pg *Page) error {
	edits := pg.edits
	pg.writes++
	err := c.dev.Write(p, pageLBA(pg.ID), PageSectors, pg.Data)
	pg.writes--
	if err != nil {
		return fmt.Errorf("bufcache: writing page %d: %w", pg.ID, err)
	}
	pg.dirty = pg.edits != edits
	c.stats.DirtyWrites++
	return nil
}

// MarkDirty flags a pinned page as modified.
func (c *Cache) MarkDirty(pg *Page) {
	if pg.pins <= 0 {
		panic("bufcache: MarkDirty on unpinned page")
	}
	pg.dirty = true
	pg.edits++
}

// Release drops one pin.
func (c *Cache) Release(pg *Page) {
	if pg.pins <= 0 {
		panic("bufcache: Release on unpinned page")
	}
	pg.pins--
}

// FlushAll writes every page dirty at the call to the device (checkpoint), in
// page-ID order, the table's: the writes block, so their order is the
// device's seek pattern.
func (c *Cache) FlushAll(p *sim.Proc) error {
	var dirty []*Page
	for _, pg := range c.pages {
		if pg != nil && pg.dirty {
			dirty = append(dirty, pg)
		}
	}
	for _, pg := range dirty {
		// An eviction by another process may have written pg meanwhile.
		if pg.dirty {
			if err := c.writePage(p, pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// DirtyPages returns the number of dirty resident pages.
func (c *Cache) DirtyPages() int {
	n := 0
	for pg := c.lru.next; pg != &c.lru; pg = pg.next {
		if pg.dirty {
			n++
		}
	}
	return n
}
