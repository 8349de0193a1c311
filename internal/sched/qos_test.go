package sched

import (
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

func TestBoundedQueueShedsNewcomer(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	q := New(env, testDisk(env), FIFO)
	q.SetMaxDepth(2)
	var shedErr error
	env.Go("submitter", func(p *sim.Proc) {
		// Occupy the disk, then fill the queue to the bound.
		first := &Request{Write: true, LBA: 0, Count: 1, Data: sector(0)}
		q.Submit(first)
		p.Sleep(100 * time.Microsecond) // let it dispatch
		var reqs []*Request
		for i := 0; i < 2; i++ {
			r := &Request{Write: true, LBA: int64(100 * (i + 1)), Count: 1, Data: sector(1)}
			q.Submit(r)
			reqs = append(reqs, r)
		}
		// Same-class newcomer on a full queue: nothing ranks below it, so
		// the newcomer itself is shed.
		extra := &Request{Write: true, LBA: 900, Count: 1, Data: sector(2)}
		q.Submit(extra)
		extra.Done.Wait(p)
		shedErr = extra.Err
		// The refused newcomer records the depth it was refused at.
		if extra.DepthAtSubmit != 2 || extra.WritesAhead != 2 {
			t.Errorf("shed newcomer saw depth %d, writes ahead %d; want 2, 2", extra.DepthAtSubmit, extra.WritesAhead)
		}
		first.Done.Wait(p)
		for _, r := range reqs {
			r.Done.Wait(p)
		}
	})
	env.Run()
	if !errors.Is(shedErr, blockdev.ErrOverload) {
		t.Errorf("newcomer error = %v, want ErrOverload", shedErr)
	}
	if s := q.Stats(); s.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Shed)
	}
}

func TestBoundedQueueEvictsLowerClass(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	q := New(env, testDisk(env), FIFO)
	q.SetMaxDepth(2)
	var victimErr, newcomerErr error
	env.Go("submitter", func(p *sim.Proc) {
		first := &Request{Write: true, LBA: 0, Count: 1, Data: sector(0)}
		q.Submit(first)
		p.Sleep(100 * time.Microsecond)
		bg := &Request{Write: true, LBA: 100, Count: 1, Data: sector(1),
			Class: blockdev.ClassBackground}
		normal := &Request{Write: true, LBA: 200, Count: 1, Data: sector(2)}
		q.Submit(bg)
		q.Submit(normal)
		// Queue full; an interactive newcomer must evict the background
		// request, not be shed itself.
		hot := &Request{LBA: 300, Count: 1, Class: blockdev.ClassInteractive}
		q.Submit(hot)
		// It is admitted behind what the eviction left: one write.
		if hot.DepthAtSubmit != 1 || hot.WritesAhead != 1 {
			t.Errorf("admitted newcomer saw depth %d, writes ahead %d; want 1, 1", hot.DepthAtSubmit, hot.WritesAhead)
		}
		bg.Done.Wait(p)
		victimErr = bg.Err
		hot.Done.Wait(p)
		newcomerErr = hot.Err
		first.Done.Wait(p)
		normal.Done.Wait(p)
	})
	env.Run()
	if !errors.Is(victimErr, blockdev.ErrOverload) {
		t.Errorf("background victim error = %v, want ErrOverload", victimErr)
	}
	if newcomerErr != nil {
		t.Errorf("interactive newcomer error = %v, want nil", newcomerErr)
	}
}

func TestExpireStaleCompletesWithoutDisk(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	q := New(env, d, FIFO)
	var staleErr error
	env.Go("submitter", func(p *sim.Proc) {
		// Occupy the disk long enough for the queued request's deadline to
		// pass before the worker picks it.
		busy := &Request{Write: true, LBA: 9000, Count: 8, Data: make([]byte, 8*len(sector(0)))}
		q.Submit(busy)
		p.Sleep(100 * time.Microsecond)
		stale := &Request{Write: true, LBA: 100, Count: 1, Data: sector(1),
			Deadline: p.Now().Add(time.Microsecond)}
		q.Submit(stale)
		stale.Done.Wait(p)
		staleErr = stale.Err
		busy.Done.Wait(p)
	})
	env.Run()
	if !errors.Is(staleErr, blockdev.ErrDeadlineExceeded) {
		t.Errorf("stale request error = %v, want ErrDeadlineExceeded", staleErr)
	}
	if s := q.Stats(); s.Expired != 1 {
		t.Errorf("Expired = %d, want 1", s.Expired)
	}
}

func TestUrgentDeadlineJumpsPolicyOrder(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	q := New(env, testDisk(env), LOOK)
	var urgentEnd, nearEnd sim.Time
	env.Go("submitter", func(p *sim.Proc) {
		first := &Request{Write: true, LBA: 0, Count: 1, Data: sector(0)}
		q.Submit(first)
		p.Sleep(100 * time.Microsecond)
		// LOOK from LBA 0 would serve near (100) before far (9000); the far
		// request's at-risk deadline must override the sweep.
		urgent := &Request{Write: true, LBA: 9000, Count: 1, Data: sector(1),
			Deadline: p.Now().Add(4 * time.Millisecond)}
		near := &Request{Write: true, LBA: 100, Count: 1, Data: sector(2)}
		q.Submit(urgent)
		q.Submit(near)
		urgent.Done.Wait(p)
		near.Done.Wait(p)
		urgentEnd, nearEnd = urgent.Result.End, near.Result.End
	})
	env.Run()
	if urgentEnd >= nearEnd {
		t.Errorf("urgent (end %v) not served before near (end %v)", urgentEnd, nearEnd)
	}
}
