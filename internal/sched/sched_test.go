package sched

import (
	"testing"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"

	"tracklog/internal/disk"
)

func testDisk(env *sim.Env) *disk.Disk {
	return disk.New(env, disk.Params{
		Name:            "t",
		RPM:             6000,
		Geom:            geom.Uniform(100, 2, 50),
		SeekT2T:         time.Millisecond,
		SeekAvg:         5 * time.Millisecond,
		SeekMax:         10 * time.Millisecond,
		HeadSwitch:      500 * time.Microsecond,
		ReadOverhead:    200 * time.Microsecond,
		WriteOverhead:   400 * time.Microsecond,
		WriteSettle:     100 * time.Microsecond,
		WriteTurnaround: time.Millisecond,
	})
}

func sector(b byte) []byte {
	d := make([]byte, geom.SectorSize)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestLOOKSweepsByLBA(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	q := New(env, d, LOOK)
	// Submit far-then-near: LOOK should serve the near one first because
	// the sweep starts at LBA 0 going up.
	var farEnd, nearEnd sim.Time
	env.Go("submitter", func(p *sim.Proc) {
		far := &Request{Write: true, LBA: 9000, Count: 1, Data: sector(1)}
		near := &Request{Write: true, LBA: 100, Count: 1, Data: sector(2)}
		q.Submit(far)
		q.Submit(near)
		far.Done.Wait(p)
		near.Done.Wait(p)
		farEnd, nearEnd = far.Result.End, near.Result.End
	})
	env.Run()
	if nearEnd >= farEnd {
		t.Errorf("LOOK served far (end %v) before near (end %v)", farEnd, nearEnd)
	}
}

func TestReadPriorityPreemptsQueuedWrites(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	q := New(env, d, ReadPriorityLOOK)
	var readEnd, write2End sim.Time
	env.Go("submitter", func(p *sim.Proc) {
		// First write occupies the disk; then a write and a read queue up.
		w1 := &Request{Write: true, LBA: 0, Count: 1, Data: sector(1)}
		q.Submit(w1)
		p.Sleep(100 * time.Microsecond) // let w1 start
		w2 := &Request{Write: true, LBA: 2000, Count: 1, Data: sector(2)}
		rd := &Request{LBA: 4000, Count: 1}
		q.Submit(w2)
		q.Submit(rd)
		w2.Done.Wait(p)
		rd.Done.Wait(p)
		readEnd, write2End = rd.Result.End, w2.Result.End
	})
	env.Run()
	if readEnd >= write2End {
		t.Errorf("read (end %v) did not pre-empt queued write (end %v)", readEnd, write2End)
	}
}

func TestDoBlocksUntilComplete(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	q := New(env, testDisk(env), LOOK)
	var latency time.Duration
	env.Go("client", func(p *sim.Proc) {
		req := &Request{Write: true, LBA: 0, Count: 1, Data: sector(9)}
		res := q.Do(p, req)
		latency = res.Latency()
		if p.Now() != res.End {
			t.Error("Do returned before completion")
		}
	})
	env.Run()
	if latency <= 0 {
		t.Error("no latency recorded")
	}
}

func TestQueueStats(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	q := New(env, testDisk(env), LOOK)
	env.Go("client", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 5; i++ {
			r := &Request{Write: true, LBA: int64(i * 100), Count: 1, Data: sector(byte(i))}
			q.Submit(r)
			reqs = append(reqs, r)
		}
		for _, r := range reqs {
			r.Done.Wait(p)
		}
	})
	env.Run()
	s := q.Stats()
	if s.Submitted != 5 || s.Completed != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxDepth < 4 {
		t.Errorf("MaxDepth = %d, want >= 4 (all but first queued)", s.MaxDepth)
	}
	if s.QueueWait == 0 {
		t.Error("queue wait not recorded")
	}
}

func TestReadDataReturned(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	d.MediaWrite(42, sector(0x77))
	q := New(env, d, LOOK)
	var got []byte
	env.Go("client", func(p *sim.Proc) {
		req := &Request{LBA: 42, Count: 1}
		q.Do(p, req)
		got = req.Data
	})
	env.Run()
	if len(got) != geom.SectorSize || got[0] != 0x77 {
		t.Error("read did not return media data")
	}
}

// LOOK seeks less than first-in-first-out service: the same requests
// issued one at a time, each waited for before the next, which any policy
// serves in arrival order.
func TestLOOKReducesSeekVsFIFO(t *testing.T) {
	run := func(inOrder bool) time.Duration {
		env := sim.NewEnv()
		defer env.Close()
		d := testDisk(env)
		q := New(env, d, LOOK)
		env.Go("client", func(p *sim.Proc) {
			var reqs []*Request
			rng := sim.NewRand(4)
			for i := 0; i < 40; i++ {
				r := &Request{Write: true, LBA: int64(rng.Intn(10000)), Count: 1, Data: sector(1)}
				q.Submit(r)
				if inOrder {
					r.Done.Wait(p)
				}
				reqs = append(reqs, r)
			}
			for _, r := range reqs {
				r.Done.Wait(p)
			}
		})
		env.Run()
		return d.Stats().SeekTime
	}
	fifo, look := run(true), run(false)
	if look >= fifo {
		t.Errorf("LOOK seek time %v not better than FIFO %v", look, fifo)
	}
}
