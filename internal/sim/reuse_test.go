package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"tracklog/internal/trace"
)

// Tests of goroutine reuse: a process that returns hands its goroutine to the
// next spawn, while its Proc stays a handle of its own.

// settleGoroutines gives goroutines that were just told to exit scheduler
// turns to finish (many under -race), then reports how many are running.
func settleGoroutines(want int) int {
	for i := 0; i < 100000 && runtime.NumGoroutine() > want; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// Close ends the goroutines on the idle list as well as the live processes.
func TestCloseEndsIdleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	for i := 0; i < 50; i++ {
		env.Go("p", func(p *Proc) { p.Sleep(time.Duration(i) * time.Microsecond) })
	}
	env.Run()
	if len(env.idle) != 50 {
		t.Fatalf("%d idle goroutines after 50 processes returned, want 50", len(env.idle))
	}
	env.Close()
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before NewEnv", n, before)
	}
}

// A panicking process takes its goroutine with it; the panic surfaces from
// Run and the next spawn runs on a fresh goroutine.
func TestPanicDoesNotReuseGoroutine(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Go("boom", func(*Proc) { panic("kaput") })
	func() {
		defer func() {
			r := recover()
			if err, ok := r.(error); !ok || !strings.Contains(err.Error(), `"boom"`) {
				t.Errorf("Run panicked with %v, want an error naming \"boom\"", r)
			}
		}()
		env.Run()
	}()
	if len(env.idle) != 0 {
		t.Fatalf("%d idle goroutines after a panic, want 0", len(env.idle))
	}
	ran := false
	env.Go("next", func(*Proc) { ran = true })
	env.Run()
	if !ran || len(env.idle) != 1 {
		t.Errorf("next spawn ran=%v, idle goroutines %d; want true, 1", ran, len(env.idle))
	}
}

// A process handed an idle goroutine and killed by Close before its first
// dispatch never runs its body, and the goroutine does not outlive Close.
func TestKilledBeforeDispatchOnReusedGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	first := env.Go("first", func(*Proc) {})
	env.Run()
	started := false
	second := env.Go("second", func(*Proc) { started = true })
	if second.resume != first.resume {
		t.Fatal("second spawn did not take the idle goroutine")
	}
	env.Close()
	if started {
		t.Error("Close ran a process that had never been dispatched")
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before NewEnv", n, before)
	}
}

// An exited process's Done stays fired, with its instant, and waitable
// after its goroutine has gone on to run another process.
func TestDoneSurvivesGoroutineReuse(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	a := env.Go("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	env.Run()
	var sawAt Time = -1
	b := env.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		a.Done().Wait(p)
		sawAt = p.Now()
	})
	if b.resume != a.resume {
		t.Fatal("b did not take a's goroutine")
	}
	env.Run()
	if !a.Done().Fired() || a.Done().At() != Time(time.Millisecond) {
		t.Errorf("a's Done: fired=%v at %v, want fired at 1ms", a.Done().Fired(), a.Done().At())
	}
	if sawAt != Time(2*time.Millisecond) {
		t.Errorf("b passed a's Done at %v, want 2ms without blocking", sawAt)
	}
}

// Waiting through another process's handle panics instead of parking that
// process, and Run surfaces the panic naming both.
func TestWaitThroughForeignProcPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	ev := NewEvent(env)
	env.Go("parent", func(p *Proc) {
		env.Go("child", func(*Proc) { ev.Wait(p) })
		p.Sleep(time.Millisecond)
	})
	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), `process "child" panicked`) ||
			!strings.Contains(err.Error(), `"parent" blocked from outside its own process`) {
			t.Errorf("Run panicked with %v, want child's panic about parent's handle", r)
		}
	}()
	env.Run()
	t.Error("Run returned; the foreign wait went unnoticed")
}

// churnWorld spawns 2 500 processes that sleep, join an earlier process,
// fork a child or return at once, beside a daemon ticker, so every goroutine
// runs many processes in turn.
func churnWorld(env *Env) {
	r := NewRand(7)
	env.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(250 * time.Microsecond)
		}
	})
	env.Go("spawner", func(p *Proc) {
		var prev *Proc
		for i := 0; i < 2000; i++ {
			d := time.Duration(r.Intn(900)) * time.Microsecond
			switch i % 4 {
			case 0:
				prev = env.Go(fmt.Sprintf("sleep%d", i), func(c *Proc) { c.Sleep(d) })
			case 1:
				joined := prev
				env.Go(fmt.Sprintf("join%d", i), func(c *Proc) { joined.Done().Wait(c) })
			case 2:
				env.Go(fmt.Sprintf("fork%d", i), func(c *Proc) {
					c.Sleep(d)
					env.Go(fmt.Sprintf("child%d", i), func(g *Proc) { g.Yield() })
				})
			case 3:
				env.Go(fmt.Sprintf("exit%d", i), func(*Proc) {})
			}
			if i%8 == 7 {
				p.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
			}
		}
	})
}

// Reusing goroutines moves neither the dispatch order nor a kernel counter: a
// long spawn/exit churn gives the trace digest and KernelStats recorded at
// 8342e4c, before goroutines were reused. The digest hashes each event's kind
// by name, so it does not move when trace.Kind is renumbered; at 044d1ba it
// was re-expressed that way from the numeric form, over the same schedule.
func TestChurnMatchesRecordedSchedule(t *testing.T) {
	tr := trace.New(0)
	env := NewEnv()
	defer env.Close()
	env.SetTracer(tr)
	churnWorld(env)
	if end := env.Run(); end != 40543000 {
		t.Errorf("run ended at %d ns, want 40543000", end)
	}
	h := fnv.New64a()
	evs := tr.Events()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d %s %s\n", ev.At, ev.Kind, ev.Track)
	}
	if got, want := fmt.Sprintf("%d events %016x", len(evs), h.Sum64()), "6003 events ec701f77283565d2"; got != want {
		t.Errorf("trace: %s, want %s", got, want)
	}
	want := KernelStats{EventsDispatched: 4914, HeapPushes: 4915, HeapPops: 4914, Wakeups: 500,
		ProcsSpawned: 2502, ProcsFinished: 2501, QueuePeak: 40, ProcsPeak: 58}
	if got := env.KernelStats(); got != want {
		t.Errorf("kernel stats:\n got %+v\nwant %+v", got, want)
	}
	if len(env.idle) > want.ProcsPeak {
		t.Errorf("%d idle goroutines, more than the %d-process peak", len(env.idle), want.ProcsPeak)
	}
}

// A steady-state spawn and exit allocates the Proc and nothing else: the
// goroutine and its channel are the previous process's. Before goroutines
// were reused it also allocated a channel and a goroutine closure (3 in all).
func TestSpawnSteadyStateAllocations(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	fn := func(*Proc) {}
	env.Go("warm", fn)
	env.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		env.Go("p", fn)
		env.Run()
	})
	if allocs != 1 {
		t.Errorf("spawn+exit allocates %v objects, want 1 (the Proc)", allocs)
	}
}
