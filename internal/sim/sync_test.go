package sim

import (
	"testing"
	"time"
)

// TestFIFOMatchesSlice holds the head-indexed list to a plain slice under
// random pushes and pops, at depths that grow, drain to empty and hover, so
// the slide-down, the reset on empty and the growth path all run.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := NewRand(13)
	var f FIFO[*int]
	var model []*int
	deepest := 0
	for step := 0; step < 20000; step++ {
		// Push-heavy for a while, then pop-heavy, so the depth swings between
		// empty and a couple of hundred.
		pushBias := 30 + 40*((step/500)%2)
		switch {
		case rng.Intn(100) < pushBias:
			v := new(int)
			f.Push(v)
			model = append(model, v)
		case len(model) > 0:
			if got := f.Pop(); got != model[0] {
				t.Fatalf("step %d: popped the wrong item", step)
			}
			model = model[1:]
		}
		if step%997 == 0 {
			f.Reset(append([]*int(nil), f.Live()...)) // what a requeue does
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, f.Len(), len(model))
		}
		live := f.Live()
		for i := range model {
			if live[i] != model[i] {
				t.Fatalf("step %d: Live()[%d] differs", step, i)
			}
		}
		// Popped slots must not pin what they held.
		for i, v := range f.items[:f.head] {
			if v != nil {
				t.Fatalf("step %d: popped slot %d still holds its item", step, i)
			}
		}
		// The array grows only while more than half of it is live.
		deepest = max(deepest, len(model))
		if cap(f.items) > 4*deepest+8 {
			t.Fatalf("step %d: backing array of %d for a depth that never passed %d", step, cap(f.items), deepest)
		}
	}
}

// ticketed runs workers that take a ticket, block in enter, and check on the
// way out that they were served in ticket order: FIFO admission, whatever
// the interleaving. rounds is the total number of waits.
func ticketed(t *testing.T, env *Env, workers, rounds int, enter func(p *Proc), leave func(p *Proc, rng *Rand)) (served *int) {
	next, serve := 0, 0
	for w := 0; w < workers; w++ {
		rng := NewRand(uint64(100 + w))
		env.Go("worker", func(p *Proc) {
			for i := 0; i < rounds/workers; i++ {
				p.Sleep(time.Duration(rng.Intn(4)))
				ticket := next
				next++
				enter(p)
				if ticket != serve {
					t.Errorf("ticket %d served at position %d", ticket, serve)
				}
				serve++
				leave(p, rng)
			}
		})
	}
	return &serve
}

// TestCondFIFOInterleaved: 1000 waits on one Cond from eight processes,
// signalled one at a time while more keep arriving, wake in arrival order.
func TestCondFIFOInterleaved(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	c := NewCond(env)
	const rounds = 1000
	served := ticketed(t, env, 8, rounds, c.Wait, func(*Proc, *Rand) {})
	env.Go("signaller", func(p *Proc) {
		rng := NewRand(7)
		for *served < rounds {
			p.Sleep(time.Duration(rng.Intn(3)))
			c.Signal()
		}
	})
	env.Run()
	if *served != rounds {
		t.Fatalf("%d of %d waits served", *served, rounds)
	}
}

// TestResourceFIFOInterleaved: 1000 acquisitions of a capacity-one Resource
// from eight processes are granted in request order.
func TestResourceFIFOInterleaved(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := NewResource(env, 1)
	const rounds = 1000
	served := ticketed(t, env, 8, rounds, r.Acquire, func(p *Proc, rng *Rand) {
		p.Sleep(time.Duration(rng.Intn(3)))
		r.Release()
	})
	env.Run()
	if *served != rounds || r.InUse() != 0 {
		t.Fatalf("%d of %d acquisitions served, %d units still held", *served, rounds, r.InUse())
	}
}

// steadyAllocs runs the world a warm-up stretch, then returns the host
// allocations of a further stretch of virtual time.
func steadyAllocs(env *Env) float64 {
	var deadline Time
	return testing.AllocsPerRun(3, func() {
		deadline = deadline.Add(2000)
		env.RunUntil(deadline)
	})
}

// TestWaitAllocations: blocking on the kernel's primitives allocates nothing
// once their lists have grown — an Event's single waiter is held inline, and
// Cond and Resource reuse their backing arrays even though the lists never
// empty.
func TestWaitAllocations(t *testing.T) {
	t.Run("Event", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		var ev Event
		waiting := false
		env.Go("waiter", func(p *Proc) {
			for {
				ev.Init(env)
				waiting = true
				ev.Wait(p)
			}
		})
		env.Go("trigger", func(p *Proc) {
			for {
				p.Sleep(1)
				if waiting {
					waiting = false
					ev.Trigger()
				}
			}
		})
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocations per 2000 wait/trigger rounds, want 0", n)
		}
	})
	t.Run("Cond", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		c := NewCond(env)
		for i := 0; i < 4; i++ {
			env.Go("waiter", func(p *Proc) {
				for {
					c.Wait(p)
				}
			})
		}
		env.Go("signaller", func(p *Proc) {
			for {
				p.Sleep(1)
				c.Signal()
			}
		})
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocations per 2000 wait/signal rounds, want 0", n)
		}
	})
	t.Run("Resource", func(t *testing.T) {
		env := NewEnv()
		defer env.Close()
		r := NewResource(env, 1)
		for i := 0; i < 4; i++ {
			env.Go("holder", func(p *Proc) {
				for {
					r.Acquire(p)
					p.Sleep(1)
					r.Release()
				}
			})
		}
		if n := steadyAllocs(env); n != 0 {
			t.Errorf("%v allocations per 2000 acquire/release rounds, want 0", n)
		}
	})
}
