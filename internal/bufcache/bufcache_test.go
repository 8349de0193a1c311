package bufcache

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
)

func newRig(capacity int) (*sim.Env, *Cache, *disk.Disk) {
	env := sim.NewEnv()
	d := disk.New(env, disk.Params{
		Name:            "d",
		RPM:             6000,
		Geom:            geom.Uniform(200, 2, 60),
		SeekT2T:         time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    300 * time.Microsecond,
		WriteOverhead:   600 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
	dev := stddisk.New(env, d, blockdev.DevID{Major: 3}, sched.LOOK)
	return env, New(dev, capacity), d
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", fn)
	env.Run()
}

func TestMissThenHit(t *testing.T) {
	env, c, _ := newRig(4)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, err := c.Get(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(pg)
		pg2, err := c.Get(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if pg2 != pg {
			t.Error("second Get returned different frame")
		}
		c.Release(pg2)
	})
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	env, c, d := newRig(2)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		pg.Data[0] = 0x77
		c.MarkDirty(pg)
		c.Release(pg)
		// Fill the cache to force eviction of page 1.
		for id := int64(2); id <= 4; id++ {
			pg, err := c.Get(p, id)
			if err != nil {
				t.Fatal(err)
			}
			c.Release(pg)
		}
	})
	if got := d.MediaRead(PageSectors, 1); got[0] != 0x77 {
		t.Error("dirty page not written back on eviction")
	}
	if c.Stats().DirtyWrites != 1 || c.Stats().Evictions < 1 {
		t.Errorf("stats %+v", c.Stats())
	}
}

func TestCleanEvictionSkipsWrite(t *testing.T) {
	env, c, d := newRig(1)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		c.Release(pg)
		pg, _ = c.Get(p, 2)
		c.Release(pg)
	})
	if d.Stats().Writes != 0 {
		t.Error("clean eviction wrote to disk")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	env, c, _ := newRig(1)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		// Cache full with a pinned page: next Get must fail.
		if _, err := c.Get(p, 2); err == nil {
			t.Error("Get succeeded with all pages pinned")
		}
		c.Release(pg)
		if _, err := c.Get(p, 2); err != nil {
			t.Errorf("Get after release: %v", err)
		}
	})
}

func TestGetZeroSkipsRead(t *testing.T) {
	env, c, d := newRig(4)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, err := c.GetZero(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(pg)
	})
	if d.Stats().Reads != 0 {
		t.Error("GetZero read the device")
	}
}

func TestFlushAll(t *testing.T) {
	env, c, d := newRig(8)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		for id := int64(1); id <= 3; id++ {
			pg, _ := c.Get(p, id)
			pg.Data[0] = byte(id)
			c.MarkDirty(pg)
			c.Release(pg)
		}
		if c.DirtyPages() != 3 {
			t.Errorf("dirty = %d", c.DirtyPages())
		}
		if err := c.FlushAll(p); err != nil {
			t.Fatal(err)
		}
		if c.DirtyPages() != 0 {
			t.Error("dirty pages after FlushAll")
		}
	})
	for id := int64(1); id <= 3; id++ {
		if got := d.MediaRead(id*PageSectors, 1); got[0] != byte(id) {
			t.Errorf("page %d not flushed", id)
		}
	}
}

func TestReleasePanicsWhenUnpinned(t *testing.T) {
	env, c, _ := newRig(2)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		c.Release(pg)
		defer func() {
			if recover() == nil {
				t.Error("double release did not panic")
			}
		}()
		c.Release(pg)
	})
}

func TestCapacityRespected(t *testing.T) {
	env, c, _ := newRig(3)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		for id := int64(1); id <= 10; id++ {
			pg, err := c.Get(p, id)
			if err != nil {
				t.Fatal(err)
			}
			c.Release(pg)
		}
	})
	if got := c.Stats().PagesResident; got > 3 {
		t.Errorf("resident = %d > capacity 3", got)
	}
}

func TestEvictedPageRoundTripsThroughDevice(t *testing.T) {
	env, c, _ := newRig(2)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.GetZero(p, 5)
		copy(pg.Data, []byte("survives eviction"))
		c.MarkDirty(pg)
		c.Release(pg)
		// Evict page 5 by filling the cache.
		for id := int64(10); id < 13; id++ {
			x, err := c.Get(p, id)
			if err != nil {
				t.Fatal(err)
			}
			c.Release(x)
		}
		// Fault it back in: contents must have round-tripped via the disk.
		pg2, err := c.Get(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Release(pg2)
		if string(pg2.Data[:17]) != "survives eviction" {
			t.Errorf("page content lost across eviction: %q", pg2.Data[:17])
		}
	})
}

func TestConcurrentFaultsSamePage(t *testing.T) {
	env, c, _ := newRig(4)
	defer env.Close()
	var frames []*Page
	for i := 0; i < 3; i++ {
		env.Go("faulter", func(p *sim.Proc) {
			pg, err := c.Get(p, 42)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			frames = append(frames, pg)
			p.Sleep(time.Millisecond)
			c.Release(pg)
		})
	}
	env.Run()
	if len(frames) != 3 {
		t.Fatalf("faults = %d", len(frames))
	}
	// All processes must share one frame (no double-fault duplication).
	if frames[0] != frames[1] || frames[1] != frames[2] {
		t.Error("same page faulted into multiple frames")
	}
}

// TestMissAllocations holds misses on a full, Trail-backed cache to a share
// of a page slab: each reads into its victim's data and carves its Page from
// a chunk, so m misses cost at most m/8 allocations (one a miss while each
// made its Page). A Page is still never handed out twice, and every evicted
// one has given up its data, so a stale handle faults.
func TestMissAllocations(t *testing.T) {
	r, err := rig.New(rig.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c := New(r.Dev(0), 4)
	const m = 10000
	handed := make([]*Page, 0, 4+2*m) // AllocsPerRun runs once before it measures
	var allocs float64
	r.Go("test", func(p *sim.Proc) {
		id := int64(0)
		miss := func() {
			pg, err := c.Get(p, id%50)
			if err != nil {
				t.Error(err)
				return
			}
			handed = append(handed, pg)
			c.Release(pg)
			id++
		}
		for range 4 {
			miss()
		}
		allocs = testing.AllocsPerRun(1, func() {
			for range m {
				miss()
			}
		})
	})
	r.Run()
	if s := c.Stats(); s.Hits != 0 || s.Evictions != s.Misses-4 || len(handed) != 4+2*m {
		t.Fatalf("stats %+v after %d pages, want every Get a miss that evicts", s, len(handed))
	}
	if allocs > m/8 {
		t.Errorf("%d misses allocate %v times, want at most %d", m, allocs, m/8)
	}
	seen := make(map[*Page]bool, len(handed))
	for _, pg := range handed {
		if seen[pg] {
			t.Fatalf("page %p (ID %d) was handed out twice", pg, pg.ID)
		}
		seen[pg] = true
		if c.pages[pg.ID] != pg && pg.Data != nil {
			t.Fatalf("evicted page %p (ID %d) still holds data", pg, pg.ID)
		}
	}
}

// TestConcurrentEvictionOfOneDirtyPage: two misses in a full cache pick the
// same dirty victim and both write it back; the write yields, so the second
// to resume finds the victim already evicted and does not count it again. It
// then waits for the first miss's frame to land and evicts that page: two
// misses into a full one-page cache take two evictions.
func TestConcurrentEvictionOfOneDirtyPage(t *testing.T) {
	env, c, d := newRig(1)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		pg.Data[0] = 0x55
		c.MarkDirty(pg)
		c.Release(pg)
	})
	for _, id := range []int64{2, 3} {
		env.Go("miss", func(p *sim.Proc) {
			pg, err := c.Get(p, id)
			if err != nil {
				t.Errorf("get %d: %v", id, err)
				return
			}
			c.Release(pg)
		})
	}
	env.Run()
	if got := d.MediaRead(PageSectors, 1); got[0] != 0x55 {
		t.Error("dirty page not written back")
	}
	if s := c.Stats(); s.DirtyWrites != 2 || s.Evictions != 2 || s.PagesResident != 1 || c.pages[3] == nil {
		t.Errorf("stats %+v, want both misses to write the one victim, one to evict it and the other to evict page 2 for page 3", s)
	}
}

// TestRecycledFrameWaitsForInFlightWrite runs the two misses of
// TestConcurrentEvictionOfOneDirtyPage through GetZero, kvdb's new-node path.
// The first to finish writing page 1 evicts it while the second's write of
// the same data is still queued or transferring: the new frame must not take
// that data and clear it under the write. The evicted Page keeps no data.
func TestRecycledFrameWaitsForInFlightWrite(t *testing.T) {
	env, c, d := newRig(1)
	defer env.Close()
	want := bytes.Repeat([]byte{0x55}, PageSize)
	var victim *Page
	run(env, func(p *sim.Proc) {
		victim, _ = c.Get(p, 1)
		copy(victim.Data, want)
		c.MarkDirty(victim)
		c.Release(victim)
	})
	for _, id := range []int64{2, 3} {
		env.Go("miss", func(p *sim.Proc) {
			pg, err := c.GetZero(p, id)
			if err != nil {
				t.Errorf("get %d: %v", id, err)
				return
			}
			c.Release(pg)
		})
	}
	env.Run()
	if s := c.Stats(); s.DirtyWrites != 2 {
		t.Fatalf("stats %+v, want both misses to write page 1", s)
	}
	if !bytes.Equal(d.MediaRead(PageSectors, PageSectors), want) {
		t.Error("page 1 on the device lost its 0x55s: a frame reused its data while a write of it was in flight")
	}
	if victim.Data != nil {
		t.Error("the evicted page still holds data")
	}
}

// dirtyVictimRig fills a two-page cache with page 1, dirty and least recently
// used, and page 9, clean, then starts process A faulting page 2 in: A picks
// page 1 as its victim and yields in the write-back.
func dirtyVictimRig(t *testing.T) (*sim.Env, *Cache, *disk.Disk) {
	env, c, d := newRig(2)
	run(env, func(p *sim.Proc) {
		for _, id := range []int64{1, 9} {
			pg, _ := c.Get(p, id)
			if id == 1 {
				pg.Data[0] = 0x55
				c.MarkDirty(pg)
			}
			c.Release(pg)
		}
	})
	env.Go("A", func(p *sim.Proc) {
		pg, err := c.Get(p, 2)
		if err != nil {
			t.Errorf("A: get 2: %v", err)
			return
		}
		c.Release(pg)
	})
	return env, c, d
}

// TestVictimPinnedDuringWriteBack: while A writes back its victim, B pins
// that page and edits it, still holding the pin when A's write completes. A
// must pick another victim; B's frame stays the resident page 1 with B's
// edit, and B's edit reaches the device at the next flush.
func TestVictimPinnedDuringWriteBack(t *testing.T) {
	env, c, d := dirtyVictimRig(t)
	defer env.Close()
	env.Go("B", func(p *sim.Proc) {
		pg, err := c.Get(p, 1)
		if err != nil {
			t.Errorf("B: get 1: %v", err)
			return
		}
		pg.Data[0] = 0x66
		c.MarkDirty(pg)
		p.Sleep(100 * time.Millisecond) // past A's write-back
		if c.pages[1] != pg {
			t.Error("page 1 evicted while B held a pin on it")
		}
		c.Release(pg)
		again, err := c.Get(p, 1)
		if err != nil {
			t.Errorf("B: get 1 again: %v", err)
			return
		}
		if again != pg || again.Data[0] != 0x66 {
			t.Errorf("page 1 came back as another frame or without B's edit (%#x)", again.Data[0])
		}
		c.Release(again)
		if err := c.FlushAll(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	env.Run()
	if got := d.MediaRead(PageSectors, 1); got[0] != 0x66 {
		t.Errorf("page 1 on the device holds %#x, want B's edit 0x66", got[0])
	}
	if s := c.Stats(); s.Evictions != 1 || s.PagesResident != 2 {
		t.Errorf("stats %+v, want page 9 evicted instead of page 1", s)
	}
}

// TestPageOutsideDeviceIsOutOfRange: Get and GetZero of a page past the
// device's last one, or of a negative page, fail at once with an error
// wrapping blockdev.ErrOutOfRange, instead of taking a frame (and a slot in
// the page table) whose write-back could only fail at eviction. The last
// page is in range.
func TestPageOutsideDeviceIsOutOfRange(t *testing.T) {
	env, c, d := newRig(4)
	defer env.Close()
	last := d.Geom().TotalSectors()/PageSectors - 1
	run(env, func(p *sim.Proc) {
		for _, get := range []struct {
			name string
			fn   func(*sim.Proc, int64) (*Page, error)
		}{{"Get", c.Get}, {"GetZero", c.GetZero}} {
			for _, id := range []int64{last + 1, last + 1000, 1 << 61, -1, -last} {
				pg, err := get.fn(p, id)
				if !errors.Is(err, blockdev.ErrOutOfRange) {
					t.Errorf("%s(%d): %v, want an error wrapping ErrOutOfRange", get.name, id, err)
				}
				if pg != nil {
					c.Release(pg)
				}
			}
			if pg, err := get.fn(p, last); err != nil {
				t.Errorf("%s of the last page: %v", get.name, err)
			} else {
				c.Release(pg)
			}
		}
	})
	if s := c.Stats(); s.PagesResident != 1 || s.Evictions != 0 {
		t.Errorf("stats %+v, want only the last page resident", s)
	}
}

// TestEditDuringWriteBackSurvives: while A writes back its victim, B pins
// that page, edits it and releases it before A's write completes. The edit
// may or may not be in what A wrote, so the page must stay dirty: A evicts
// page 9 instead, and B's edit reaches the device at the next flush.
func TestEditDuringWriteBackSurvives(t *testing.T) {
	env, c, d := dirtyVictimRig(t)
	defer env.Close()
	env.Go("B", func(p *sim.Proc) {
		pg, err := c.Get(p, 1)
		if err != nil {
			t.Errorf("B: get 1: %v", err)
			return
		}
		pg.Data[0] = 0x66
		c.MarkDirty(pg)
		c.Release(pg)
	})
	env.Run()
	if c.pages[1] == nil || c.DirtyPages() != 1 {
		t.Errorf("page 1 resident %v, %d dirty pages; want page 1 resident and still dirty with B's edit", c.pages[1] != nil, c.DirtyPages())
	}
	run(env, func(p *sim.Proc) {
		if err := c.FlushAll(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	if got := d.MediaRead(PageSectors, 1); got[0] != 0x66 {
		t.Errorf("page 1 on the device holds %#x, want B's edit 0x66", got[0])
	}
}

// TestFillReservesItsFrame: two misses in a full one-page cache. The first
// evicts the resident page and reads; while that read is in flight its frame
// is taken, so the second waits for it to land and then evicts it, and the
// cache never holds more pages than its capacity.
func TestFillReservesItsFrame(t *testing.T) {
	env, c, _ := newRig(1)
	defer env.Close()
	run(env, func(p *sim.Proc) {
		pg, _ := c.Get(p, 1)
		c.Release(pg)
	})
	peak := 0
	for _, id := range []int64{2, 3} {
		env.Go("miss", func(p *sim.Proc) {
			pg, err := c.Get(p, id)
			if err != nil {
				t.Errorf("get %d: %v", id, err)
				return
			}
			peak = max(peak, c.Stats().PagesResident)
			c.Release(pg)
		})
	}
	env.Run()
	if s := c.Stats(); peak > 1 || s.PagesResident != 1 || s.Evictions != 2 || s.Misses != 3 {
		t.Errorf("peak %d resident, stats %+v; want at most the capacity, 1, resident and both misses to evict", peak, s)
	}
}

// sleepyDev serves a drive's media after a fixed delay on the caller's own
// clock, so it works in whichever world calls it.
type sleepyDev struct{ *disk.InstantDev }

func (d sleepyDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	p.Sleep(time.Millisecond)
	return d.InstantDev.Read(p, lba, count)
}

// A cache outlives the world it was used in: a miss that waits for a fill
// to land waits in its own world, not in one closed before it.
func TestWaitForFillInALaterWorld(t *testing.T) {
	first := sim.NewEnv()
	dev := sleepyDev{disk.NewInstantDev(disk.New(first, disk.WDCaviar()), blockdev.DevID{Major: 3})}
	c := New(dev, 1)
	for w, ids := range [][]int64{{1, 2}, {3, 4}} {
		env := first
		if w > 0 {
			env = sim.NewEnv()
		}
		done := 0
		for _, id := range ids {
			env.Go("miss", func(p *sim.Proc) {
				pg, err := c.Get(p, id)
				if err != nil {
					t.Errorf("world %d, get %d: %v", w, id, err)
					return
				}
				c.Release(pg)
				done++
			})
		}
		env.Run()
		env.Close()
		if done != 2 {
			t.Errorf("world %d: %d of 2 misses finished", w, done)
		}
	}
	if s := c.Stats(); s.Misses != 4 || s.Evictions != 3 {
		t.Errorf("stats %+v, want 4 misses and 3 evictions", s)
	}
}
