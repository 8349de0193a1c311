package trail

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// stagedByScan is the oracle for stagedOver: every entry in the stripe
// index's buckets, whatever stripe it is filed under, that is dev's and
// overlaps [lba, lba+count), oldest first.
func stagedByScan(d *Driver, dev int, lba int64, count int) []*bufEntry {
	var over []*bufEntry
	for _, e := range d.staged.buckets {
		for ; e != nil; e = e.chain {
			if e.dev == dev && e.lba < lba+int64(count) && e.lba+int64(e.count) > lba {
				over = append(over, e)
			}
		}
	}
	slices.SortFunc(over, func(a, b *bufEntry) int { return cmp.Compare(a.stamp, b.stamp) })
	return over
}

// TestStagedOverMatchesLinearScan stages extents of 1..MaxBatchSectors
// sectors on two data disks over 64 stripes, enough that stripes of the two
// disks share buckets, starting at LBA 0, just
// before, on and across stripe boundaries and anywhere, some on both disks
// at once and some superseding a staged one, while write-backs land and,
// for a while, one sector of the second disk fails every write-back over
// it. After every write, stagedOver must return what a scan of every staged
// entry returns, in the same order, for ranges within a stripe, across
// several and wider than the bucket array; reads must return the platter
// with that scan laid over it; and every staged entry must hold the newest
// acknowledged bytes of its own disk's extent.
func TestStagedOverMatchesLinearScan(t *testing.T) {
	const (
		span  = 64 * MaxBatch // the LBAs written
		steps = 600
		bad   = 0 // the sector whose write-backs fail on disk 1
	)
	// Data disks a quarter the log disk's speed, so write-backs fall behind
	// and a backlog builds between pauses, on a log long enough to hold it.
	env := sim.NewEnv()
	defer env.Close()
	lp := testLogParams()
	lp.Geom = geom.Uniform(200, 2, 60)
	r := &rig{env: env, log: disk.New(env, lp)}
	if err := Format(r.log); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		dp := testDataParams("data")
		dp.RPM /= 4
		r.data = append(r.data, disk.New(env, dp))
	}
	var err error
	if r.drv, err = NewDriver(env, r.log, r.data, Config{}); err != nil {
		t.Fatal(err)
	}
	fault := &stepFault{badLBA: bad}
	r.data[1].SetInjector(fault)
	rng := rand.New(rand.NewPCG(1, 2))
	type key struct {
		dev   int
		lba   int64
		count int
	}
	acked := map[key][]byte{}
	var keys []key
	extent := func() (int64, int) {
		n := 1 + rng.IntN(r.drv.cfg.MaxBatchSectors)
		var lba int64
		switch edge := int64(1+rng.IntN(span/MaxBatch-1)) * MaxBatch; rng.IntN(5) {
		case 0:
			lba = 0
		case 1:
			lba = edge - int64(n) // ends just before a stripe boundary
		case 2:
			lba = edge // starts on one
		case 3:
			lba = edge - int64(rng.IntN(n)) // crosses one
		default:
			lba = rng.Int64N(span - int64(n) + 1)
		}
		return max(lba, 0), n
	}
	payload := func(step, dev int, n int) []byte {
		buf := make([]byte, n*geom.SectorSize)
		for s := range n {
			sec := buf[s*geom.SectorSize : s*geom.SectorSize+(step*37+s)%geom.SectorSize+1]
			for i := range sec {
				sec[i] = byte(step + 3*dev + s + i>>4 | 1)
			}
		}
		return buf
	}
	var failure error
	check := func(p *sim.Proc) error {
		if err := r.drv.CheckInvariants(); err != nil {
			return err
		}
		for dev := range 2 {
			for _, e := range stagedByScan(r.drv, dev, 0, span) {
				got := make([]byte, e.count*geom.SectorSize)
				unpack(got, e.data, e.count, 0)
				if !bytes.Equal(got, acked[key{e.dev, e.lba, e.count}]) {
					return fmt.Errorf("disk %d's staged extent at %d+%d does not hold its newest acknowledged bytes", dev, e.lba, e.count)
				}
			}
			queries := [][2]int64{{0, 1}, {0, MaxBatch}, {span - 1, 1}, {0, 4096}}
			for range 6 {
				lba, n := extent()
				queries = append(queries, [2]int64{lba, int64(n)}, [2]int64{lba, int64(n + 2*MaxBatch)})
			}
			for _, q := range queries {
				lba, n := q[0], int(q[1])
				got, want := r.drv.stagedOver(nil, dev, lba, n), stagedByScan(r.drv, dev, lba, n)
				if !slices.Equal(got, want) {
					return fmt.Errorf("disk %d, sectors %d+%d: stagedOver finds %d extents, a scan %d (or another order)", dev, lba, n, len(got), len(want))
				}
			}
			if rng.IntN(4) > 0 {
				continue // reads wait on the data disk: one step in four, so a backlog builds
			}
			for _, q := range [][2]int64{queries[1], queries[4], queries[5]} {
				lba, n := q[0], int(q[1])
				got, err := r.drv.Dev(dev).Read(p, lba, n)
				if err != nil {
					return err
				}
				want := r.data[dev].MediaRead(lba, n)
				overlay(want, lba, stagedByScan(r.drv, dev, lba, n))
				if !bytes.Equal(got, want) {
					return fmt.Errorf("disk %d: Read(%d, %d) is not the platter under the staged extents", dev, lba, n)
				}
			}
		}
		return nil
	}
	// An abandoned write-back pins its log records until a later version of
	// the extent lands, so the sector heals a quarter of the way in.
	covers := func(k key) bool { return k.dev == 1 && k.lba <= bad && k.lba+int64(k.count) > bad }
	r.env.Go("client", func(p *sim.Proc) {
		var heal []key // extents over the failing sector, rewritten once it heals
		for step := range steps {
			var k key
			if step == steps/4 {
				fault.badLBA = -1
				for _, k := range keys {
					if covers(k) && !slices.Contains(heal, k) {
						heal = append(heal, k)
					}
				}
			}
			switch x := rng.IntN(8); {
			case len(heal) > 0: // the next version commits the abandoned ones' records
				k, heal = heal[0], heal[1:]
			case x == 0 && len(keys) > 0: // the last extent on the other disk
				k = keys[len(keys)-1]
				k.dev = 1 - k.dev
			case x <= 2 && len(keys) > 0: // supersede one of the last extents, likely still queued
				k = keys[max(len(keys)-1-rng.IntN(8), 0)]
			default:
				k.dev = rng.IntN(2)
				k.lba, k.count = extent()
			}
			data := payload(step, k.dev, k.count)
			if failure = r.drv.Dev(k.dev).Write(p, k.lba, k.count, data); failure != nil {
				return
			}
			acked[k] = data
			keys = append(keys, k)
			if failure = check(p); failure != nil {
				failure = fmt.Errorf("step %d (disk %d, sectors %d+%d): %w", step, k.dev, k.lba, k.count, failure)
				return
			}
			switch rng.IntN(8) {
			case 0:
				p.Sleep(30 * time.Millisecond) // the write-backs land
			case 1:
				p.Sleep(2 * time.Millisecond)
			}
		}
	})
	r.env.Run()
	if failure != nil {
		t.Fatal(failure)
	}
	st := r.drv.Stats()
	t.Logf("%d write-backs, %d superseded, %d abandoned; %d buckets", st.WriteBacks, st.SupersededWriteBacks, st.AbandonedWritebacks, len(r.drv.staged.buckets))
	if st.WriteBacks == 0 || st.SupersededWriteBacks == 0 || st.AbandonedWritebacks == 0 {
		t.Fatal("the run did not land, supersede and abandon write-backs")
	}
}
