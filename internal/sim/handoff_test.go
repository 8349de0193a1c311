package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests of the dispatch protocol: the process giving up control pops the
// queue itself, continues if the event is its own wake-up, and otherwise
// hands over directly to the next process or, when the run is over, to the
// driver.

// A yielding process's own wake-up gets the newest seq, so it must run after
// everything already queued at that instant — the self-wake fast path may
// not jump the queue.
func TestYieldKeepsSameInstantFIFO(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ev := NewEvent(env)
	var order []string
	env.Go("w1", func(p *Proc) {
		ev.Wait(p)
		order = append(order, "w1")
		p.Yield()
		order = append(order, "w1b")
	})
	env.Go("w2", func(p *Proc) {
		ev.Wait(p)
		order = append(order, "w2")
	})
	env.Go("a", func(p *Proc) {
		order = append(order, "a1")
		ev.Trigger()
		p.Yield()
		order = append(order, "a2")
		p.Yield() // alone at this instant but for w1b, queued earlier
		order = append(order, "a3")
	})
	if end := env.Run(); end != 0 {
		t.Errorf("Run ended at %v, want 0", end)
	}
	want := []string{"a1", "w1", "w2", "a2", "w1b", "a3"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// chainWorld mixes self-wakes (a lone sleeper), direct hand-offs (an event
// ping-pong) and same-instant ties, and emits probes from a process that was
// resumed by another process. trace receives one line per step.
func chainWorld(env *Env, trace *[]string) {
	step := func(p *Proc, what string) {
		*trace = append(*trace, p.Now().String()+" "+p.Name()+" "+what)
	}
	ping, pong := NewEvent(env), NewEvent(env)
	env.Go("a", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(3 * time.Millisecond)
			step(p, "ping")
			ping.Trigger()
			pong.Wait(p)
			pong = NewEvent(env)
		}
	})
	env.Go("b", func(p *Proc) {
		for i := 0; i < 4; i++ {
			ping.Wait(p)
			ping = NewEvent(env)
			env.EmitProbe(p, ProbeAck, "b", int64(i), 1)
			step(p, "pong")
			p.Sleep(time.Millisecond)
			env.EmitProbe(p, ProbeMediaWrite, "b", int64(i), 1)
			pong.Trigger()
		}
	})
	env.Go("lone", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond) // nothing else queued: self-wake
			step(p, "tick")
		}
	})
}

// A deadline that falls between two events of a chain stops the clock
// exactly there with the later event still queued, and a second RunUntil
// carries on as if the run had never been cut.
func TestRunUntilMidChainMatchesUninterruptedRun(t *testing.T) {
	var wantTrace []string
	whole := NewEnv()
	defer whole.Close()
	chainWorld(whole, &wantTrace)
	whole.Run()

	var gotTrace []string
	cut := NewEnv()
	defer cut.Close()
	chainWorld(cut, &gotTrace)
	// 3.5 ms: b is asleep until 4 ms, a is parked on pong; 22.5 ms: lone is
	// mid-way through its self-wake loop.
	for _, d := range []Time{Time(3500 * time.Microsecond), Time(22500 * time.Microsecond)} {
		if end := cut.RunUntil(d); end != d || cut.Now() != d {
			t.Fatalf("RunUntil(%v) = %v, Now() = %v", d, end, cut.Now())
		}
		if len(cut.queue) == 0 || cut.queue[0].at <= d {
			t.Fatalf("at %v: queue %v, want a later event still queued", d, cut.queue)
		}
	}
	cut.Run()

	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Errorf("trace diverged:\n got %v\nwant %v", gotTrace, wantTrace)
	}
	if got, want := cut.KernelStats(), whole.KernelStats(); got != want {
		t.Errorf("kernel stats diverged:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(cut.Snapshot(), whole.Snapshot()) {
		t.Error("final Env.Snapshot differs from the uninterrupted run's")
	}
}

// A probe hook pausing a process that another process resumed (so a process,
// not the driver, holds the dispatch loop) hands control to the driver, and
// resuming replays the never-paused run byte for byte — including the
// snapshot a non-pausing hook takes at each probe index.
func TestProbePauseUnderProcessDispatchMatchesNeverPaused(t *testing.T) {
	var wantTrace []string
	var wantSnaps [][]byte
	plain := NewEnv()
	defer plain.Close()
	chainWorld(plain, &wantTrace)
	plain.SetProbeHook(func(ProbeEvent) bool {
		wantSnaps = append(wantSnaps, plain.Snapshot())
		return false
	})
	plain.Run()

	var gotTrace []string
	var gotSnaps [][]byte
	paused := NewEnv()
	defer paused.Close()
	chainWorld(paused, &gotTrace)
	paused.SetProbeHook(func(ProbeEvent) bool {
		gotSnaps = append(gotSnaps, paused.Snapshot())
		return true
	})
	pauses := 0
	for paused.Run(); paused.Paused(); paused.Run() {
		pauses++
	}

	if pauses != 8 || int64(pauses) != plain.ProbeCount() {
		t.Errorf("paused %d times, want 8 (= %d probes)", pauses, plain.ProbeCount())
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Errorf("trace diverged:\n got %v\nwant %v", gotTrace, wantTrace)
	}
	if !reflect.DeepEqual(gotSnaps, wantSnaps) {
		t.Error("per-probe Env.Snapshot bytes differ between the paused and the never-paused run")
	}
	if got, want := paused.KernelStats(), plain.KernelStats(); got != want {
		t.Errorf("kernel stats diverged:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(paused.Snapshot(), plain.Snapshot()) {
		t.Error("final Env.Snapshot differs from the never-paused run's")
	}
}

// A panic in a process that was resumed by another process — the driver is
// asleep, two hand-offs away — still surfaces from Run on the caller's
// goroutine, naming the process.
func TestPanicAfterHandoffSurfacesInRun(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ev := NewEvent(env)
	env.Go("victim", func(p *Proc) {
		ev.Wait(p)
		panic("kaput")
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ev.Trigger()
		p.Sleep(time.Millisecond)
	})
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), `"victim"`) || !strings.Contains(err.Error(), "kaput") {
			t.Errorf("Run panicked with %v, want an error naming process \"victim\" and its panic value", r)
		}
		if env.Now() != Time(time.Millisecond) {
			t.Errorf("clock at %v, want the panic's instant 1ms", env.Now())
		}
	}()
	env.Run()
	t.Error("Run returned; the process panic was lost")
}

// Close unwinds every kind of live process left behind by a run that ended
// mid-chain: parked, sleeping, spawned but never started, and one that
// blocks again in a deferred call while unwinding.
func TestCloseAfterHandoffChainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	ev, never := NewEvent(env), NewEvent(env)
	unwound, started := 0, false
	env.Go("parked", func(p *Proc) {
		defer func() { unwound++ }()
		ev.Wait(p)
		never.Wait(p)
	})
	env.Go("sleeper", func(p *Proc) {
		defer func() { unwound++ }()
		defer p.Sleep(time.Millisecond) // blocks again while being killed
		for {
			p.Sleep(time.Millisecond)
		}
	})
	env.GoDaemon("daemon", func(p *Proc) {
		defer func() { unwound++ }()
		for {
			p.Sleep(time.Millisecond)
		}
	})
	env.Go("waker", func(p *Proc) {
		p.Sleep(2500 * time.Microsecond)
		ev.Trigger()
		never.Wait(p)
	})
	env.RunUntil(Time(2500 * time.Microsecond))
	env.Go("unstarted", func(*Proc) { started = true })
	env.Close()

	if unwound != 3 {
		t.Errorf("%d of 3 deferred clean-ups ran on Close", unwound)
	}
	if started {
		t.Error("Close ran a process that had never been dispatched")
	}
	// An unwound goroutine signals Close just before it returns.
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before NewEnv", n, before)
	}
}

// A steady-state Sleep — queue grown, process alone in it — allocates
// nothing: the queue holds events by value and a self-wake touches no
// channel.
func TestSteadyStateSleepAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	allocs := -1.0
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Microsecond)
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
	})
	env.Run()
	if allocs != 0 {
		t.Errorf("Sleep allocates %v objects per call, want 0", allocs)
	}
}
