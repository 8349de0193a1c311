package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var woke Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	end := env.Run()
	if want := Time(5 * time.Millisecond); woke != want {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if end != woke {
		t.Errorf("Run returned %v, want %v", end, woke)
	}
}

func TestSleepZeroYields(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i, s := range want {
		if i >= len(order) || order[i] != s {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []Time {
		env := NewEnv()
		defer env.Close()
		var times []Time
		for i := 0; i < 3; i++ {
			d := time.Duration(i+1) * time.Millisecond
			env.Go("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(d)
					times = append(times, p.Now())
				}
			})
		}
		env.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("got %d and %d wakeups, want 9 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEventWakesWaiters(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	// One event from NewEvent, one held by value and bound with Init; three
	// waiters each, so the inline first waiter and the spill list both fill.
	var byValue struct{ ev Event }
	byValue.ev.Init(env)
	for _, ev := range []*Event{NewEvent(env), &byValue.ev} {
		var woken []string
		for _, name := range []string{"w1", "w2", "w3"} {
			env.Go(name, func(p *Proc) {
				ev.Wait(p)
				woken = append(woken, p.Name())
			})
		}
		fireAt := env.Now().Add(time.Millisecond)
		env.Go("trigger", func(p *Proc) {
			p.Sleep(time.Millisecond)
			ev.Trigger()
		})
		env.Run()
		if len(woken) != 3 || woken[0] != "w1" || woken[1] != "w2" || woken[2] != "w3" {
			t.Errorf("woken = %v, want [w1 w2 w3] in FIFO order", woken)
		}
		if ev.At() != fireAt {
			t.Errorf("event fired at %v, want %v", ev.At(), fireAt)
		}
	}
}

func TestEventWaitAfterTrigger(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ev := NewEvent(env)
	var ran bool
	env.Go("p", func(p *Proc) {
		ev.Trigger()
		ev.Wait(p) // must not block
		ran = true
	})
	env.Run()
	if !ran {
		t.Error("Wait after Trigger blocked")
	}
}

func TestCondSignalFIFO(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	c := NewCond(env)
	var woken []string
	for _, name := range []string{"a", "b", "c"} {
		env.Go(name, func(p *Proc) {
			c.Wait(p)
			woken = append(woken, p.Name())
		})
	}
	env.Go("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		c.Broadcast()
	})
	env.Run()
	if len(woken) != 3 || woken[0] != "a" {
		t.Errorf("woken = %v, want a first then b,c", woken)
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := NewResource(env, 1)
	var maxHeld, held int
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			r.Acquire(p)
			held++
			if held > maxHeld {
				maxHeld = held
			}
			p.Sleep(time.Millisecond)
			held--
			r.Release()
		})
	}
	end := env.Run()
	if maxHeld != 1 {
		t.Errorf("max concurrent holders = %d, want 1", maxHeld)
	}
	if want := Time(4 * time.Millisecond); end != want {
		t.Errorf("finished at %v, want %v (serialized)", end, want)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := NewResource(env, 2)
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	if end := env.Run(); end != Time(2*time.Millisecond) {
		t.Errorf("finished at %v, want 2ms with capacity 2", end)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var wokeLate bool
	env.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		wokeLate = true
	})
	end := env.RunUntil(Time(3 * time.Millisecond))
	if wokeLate {
		t.Error("process past deadline ran")
	}
	if end != Time(3*time.Millisecond) {
		t.Errorf("clock = %v, want deadline 3ms", end)
	}
	env.Run()
	if !wokeLate {
		t.Error("resumed Run did not finish the process")
	}
}

func TestCloseUnwindsParkedProcesses(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	cleaned := false
	env.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		ev.Wait(p) // never triggered
	})
	env.Run()
	env.Close()
	if !cleaned {
		t.Error("deferred cleanup did not run on Close")
	}
}

func TestProcessPanicSurfacesInRun(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("boom", func(p *Proc) {
		panic("kaput")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Error("Run did not propagate process panic")
		}
	}()
	env.Run()
}

// A process that waits on an event another process triggers as it exits
// resumes at that instant.
func TestExitEvent(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	workerDone := NewEvent(env)
	env.Go("worker", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		workerDone.Trigger()
	})
	var sawDone Time
	env.Go("watcher", func(p *Proc) {
		workerDone.Wait(p)
		sawDone = p.Now()
	})
	env.Run()
	if sawDone != Time(2*time.Millisecond) {
		t.Errorf("watcher saw done at %v, want 2ms", sawDone)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRandIntRangeInclusive(t *testing.T) {
	r := NewRand(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 7)
		if v < 5 || v > 7 {
			t.Fatalf("IntRange(5,7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntRange never produced all of 5..7: %v", seen)
	}
}

func TestNURandBounds(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		v := r.NURand(255, 1, 3000)
		if v < 1 || v > 3000 {
			t.Fatalf("NURand out of range: %d", v)
		}
	}
}

func TestRandExpPositiveMean(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Exp(10)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 9 || mean > 11 {
		t.Errorf("Exp(10) sample mean = %v, want ~10", mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(8)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(3 * time.Millisecond)
	if t0.Sub(Time(time.Millisecond)) != 2*time.Millisecond {
		t.Error("Sub wrong")
	}
	if t0.Duration() != 3*time.Millisecond {
		t.Error("Duration wrong")
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	r := NewRand(1)
	total := 0
	for i := 0; i < 200; i++ {
		env.Go("w", func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(time.Duration(r.Intn(1000)+1) * time.Microsecond)
				total++
			}
		})
	}
	env.Run()
	if total != 2000 {
		t.Errorf("total = %d, want 2000", total)
	}
}

func TestRunUntilRepeatedAndIdempotent(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ticks := 0
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			ticks++
		}
	})
	env.RunUntil(Time(3 * time.Millisecond))
	if ticks != 3 {
		t.Errorf("ticks = %d at 3ms", ticks)
	}
	// Re-running to the same deadline does nothing.
	env.RunUntil(Time(3 * time.Millisecond))
	if ticks != 3 {
		t.Errorf("ticks = %d after idempotent re-run", ticks)
	}
	env.RunUntil(Time(7 * time.Millisecond))
	if ticks != 7 {
		t.Errorf("ticks = %d at 7ms", ticks)
	}
	env.Run()
	if ticks != 10 {
		t.Errorf("ticks = %d at end", ticks)
	}
}

func TestTriggerIdempotent(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ev := NewEvent(env)
	woken := 0
	env.Go("w", func(p *Proc) {
		ev.Wait(p)
		woken++
	})
	env.Go("t", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger()
		ev.Trigger() // second trigger is a no-op
	})
	env.Run()
	if woken != 1 {
		t.Errorf("woken = %d", woken)
	}
	if !ev.Fired() || ev.At() != Time(time.Millisecond) {
		t.Errorf("event state: fired=%v at=%v", ev.Fired(), ev.At())
	}
}
