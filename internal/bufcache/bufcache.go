// Package bufcache implements a fixed-capacity page cache with pin/dirty
// semantics over a block device, modelling the role the EXT2 buffer cache
// plays in the paper's system under test: reads miss to the data disk, dirty
// pages are written back on eviction or explicit flush.
package bufcache

import (
	"fmt"
	"sort"

	"tracklog/internal/blockdev"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// PageSectors is the number of sectors per cache page (4 KiB pages).
const PageSectors = 8

// PageSize is the page size in bytes.
const PageSize = PageSectors * geom.SectorSize

// Page is a cached page frame. Callers must hold a pin (from Get) while
// touching Data and must Release it afterwards.
type Page struct {
	ID    int64
	Data  []byte
	dirty bool
	pins  int
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
	pages    map[int64]*Page
	// lru is the sentinel of a ring of the resident pages: lru.next is the
	// most recently used, lru.prev the least.
	lru   Page
	stats Stats
}

// New returns a cache of capacity pages over dev.
func New(dev blockdev.Device, capacity int) *Cache {
	if capacity < 1 {
		panic("bufcache: capacity must be >= 1")
	}
	c := &Cache{dev: dev, capacity: capacity, pages: make(map[int64]*Page)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Capacity returns the cache size in pages.
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.PagesResident = len(c.pages)
	return s
}

// pageLBA returns the device LBA of a page.
func pageLBA(id int64) int64 { return id * PageSectors }

// Get pins and returns the page, reading it from the device on a miss.
func (c *Cache) Get(p *sim.Proc, id int64) (*Page, error) {
	if pg, ok := c.pages[id]; ok {
		c.stats.Hits++
		pg.pins++
		c.touch(pg)
		return pg, nil
	}
	c.stats.Misses++
	if err := c.makeRoom(p); err != nil {
		return nil, err
	}
	data, err := c.dev.Read(p, pageLBA(id), PageSectors)
	if err != nil {
		return nil, fmt.Errorf("bufcache: page %d: %w", id, err)
	}
	// The read may have yielded; another process may have faulted the same
	// page in meanwhile.
	if pg, ok := c.pages[id]; ok {
		pg.pins++
		c.touch(pg)
		return pg, nil
	}
	pg := &Page{ID: id, Data: data, pins: 1}
	c.touch(pg)
	c.pages[id] = pg
	return pg, nil
}

// GetZero pins a page frame without reading the device, for pages about to
// be fully overwritten (new allocations).
func (c *Cache) GetZero(p *sim.Proc, id int64) (*Page, error) {
	if pg, ok := c.pages[id]; ok {
		pg.pins++
		c.touch(pg)
		return pg, nil
	}
	if err := c.makeRoom(p); err != nil {
		return nil, err
	}
	pg := &Page{ID: id, Data: make([]byte, PageSize), pins: 1}
	c.touch(pg)
	c.pages[id] = pg
	return pg, nil
}

// makeRoom evicts LRU unpinned pages until a frame is free. A dirty victim
// is written back first and evicted only if it is still resident and
// unpinned once the write returns.
func (c *Cache) makeRoom(p *sim.Proc) error {
	for len(c.pages) >= c.capacity {
		victim := c.lruVictim()
		if victim == nil {
			return fmt.Errorf("bufcache: all %d pages pinned", c.capacity)
		}
		if victim.dirty {
			if err := c.writePage(p, victim); err != nil {
				return err
			}
			// The write yielded: another process may have evicted or pinned
			// the victim meanwhile. Pick again if so.
			if c.pages[victim.ID] != victim || victim.pins > 0 {
				continue
			}
		}
		c.stats.Evictions++
		victim.unlink()
		delete(c.pages, victim.ID)
	}
	return nil
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

func (c *Cache) writePage(p *sim.Proc, pg *Page) error {
	if err := c.dev.Write(p, pageLBA(pg.ID), PageSectors, pg.Data); err != nil {
		return fmt.Errorf("bufcache: writing page %d: %w", pg.ID, err)
	}
	pg.dirty = false
	c.stats.DirtyWrites++
	return nil
}

// MarkDirty flags a pinned page as modified.
func (c *Cache) MarkDirty(pg *Page) {
	if pg.pins <= 0 {
		panic("bufcache: MarkDirty on unpinned page")
	}
	pg.dirty = true
}

// Release drops one pin.
func (c *Cache) Release(pg *Page) {
	if pg.pins <= 0 {
		panic("bufcache: Release on unpinned page")
	}
	pg.pins--
}

// FlushAll writes every dirty page to the device (checkpoint), in page-ID
// order: the writes block, so their order is the device's seek pattern and
// must not depend on map iteration.
func (c *Cache) FlushAll(p *sim.Proc) error {
	var dirty []*Page
	for _, pg := range c.pages {
		if pg.dirty {
			dirty = append(dirty, pg)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].ID < dirty[j].ID })
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
	for _, pg := range c.pages {
		if pg.dirty {
			n++
		}
	}
	return n
}
