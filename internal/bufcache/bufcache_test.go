package bufcache

import (
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
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

// TestMissAllocations: a miss in a full cache evicts a page and faults one in
// without allocating anything beyond the new page and the data its device
// returns; the LRU links live in the pages.
func TestMissAllocations(t *testing.T) {
	env, _, d := newRig(1)
	defer env.Close()
	c := New(disk.NewInstantDev(d, blockdev.DevID{Major: 3}), 4)
	var perMiss float64
	run(env, func(p *sim.Proc) {
		id := int64(0)
		perMiss = testing.AllocsPerRun(100, func() {
			pg, err := c.Get(p, id%50)
			if err != nil {
				t.Error(err)
				return
			}
			c.Release(pg)
			id++
		})
	})
	if s := c.Stats(); s.Hits != 0 || s.Evictions != s.Misses-4 {
		t.Fatalf("stats %+v, want every Get a miss that evicts", s)
	}
	if perMiss > 2 {
		t.Errorf("a miss allocates %v times, want <= 2 (the page and its data)", perMiss)
	}
}

// TestConcurrentEvictionOfOneDirtyPage: two misses in a full cache pick the
// same dirty victim and both write it back; the write yields, so the second
// to resume finds the victim already evicted.
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
	if s := c.Stats(); s.DirtyWrites != 2 || s.Evictions != 2 {
		t.Errorf("stats %+v, want both misses to write and evict the one victim", s)
	}
}
