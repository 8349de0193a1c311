package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tracklog/internal/trace"
)

// Tests of record reuse: a process that returns hands its Proc record, and
// the goroutine that runs it, to the next spawn.

// settleGoroutines gives goroutines that were just told to exit scheduler
// turns to finish (many under -race), then reports how many are running.
func settleGoroutines(want int) int {
	for i := 0; i < 100000 && runtime.NumGoroutine() > want; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// Close ends the goroutines on the free list as well as the live processes.
func TestCloseEndsIdleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	for i := 0; i < 50; i++ {
		env.Go("p", func(p *Proc) { p.Sleep(time.Duration(i) * time.Microsecond) })
	}
	env.Run()
	if len(env.free) != 50 {
		t.Fatalf("%d idle goroutines after 50 processes returned, want 50", len(env.free))
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
	if len(env.free) != 0 {
		t.Fatalf("%d idle goroutines after a panic, want 0", len(env.free))
	}
	ran := false
	env.Go("next", func(*Proc) { ran = true })
	env.Run()
	if !ran || len(env.free) != 1 {
		t.Errorf("next spawn ran=%v, idle goroutines %d; want true, 1", ran, len(env.free))
	}
}

// A process handed a free record and killed by Close before its first
// dispatch never runs its body, and the goroutine does not outlive Close.
func TestKilledBeforeDispatchOnReusedGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	env.Go("first", func(*Proc) {})
	env.Run()
	first := env.free[0]
	started := false
	env.Go("second", func(*Proc) { started = true })
	if len(env.free) != 0 || env.live[0] != first {
		t.Fatal("second spawn did not take the free record")
	}
	env.Close()
	if started {
		t.Error("Close ran a process that had never been dispatched")
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after Close, %d before NewEnv", n, before)
	}
}

// An event a process triggers just before returning stays fired, with its
// instant, once the next spawn has taken the record and its goroutine, and a
// later process passes a wait on it without blocking.
func TestExitEventSurvivesRecordReuse(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	aDone := NewEvent(env)
	env.Go("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		aDone.Trigger()
	})
	env.Run()
	a := env.free[0]
	var sawAt Time = -1
	env.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		aDone.Wait(p)
		sawAt = p.Now()
	})
	if env.live[0] != a {
		t.Fatal("b did not take a's record")
	}
	wakeups := env.KernelStats().Wakeups
	env.Run()
	if !aDone.Fired() || aDone.At() != Time(time.Millisecond) {
		t.Errorf("a's exit event: fired=%v at %v, want fired at 1ms", aDone.Fired(), aDone.At())
	}
	if sawAt != Time(2*time.Millisecond) || env.KernelStats().Wakeups != wakeups {
		t.Errorf("b passed a's exit event at %v after %d wakeups, want 2ms without blocking",
			sawAt, env.KernelStats().Wakeups-wakeups)
	}
}

// A recycled record carries nothing of its last process: a non-daemon on a
// daemon's record keeps Run alive, a daemon on a non-daemon's does not, and
// the proc-start and proc-end events name the process that now owns it.
func TestRecycledRecordStartsClean(t *testing.T) {
	tr := trace.New(0)
	env := NewEnv()
	defer env.Close()
	env.SetTracer(tr)
	env.Go("kick", func(p *Proc) { p.Sleep(time.Microsecond) })
	env.GoDaemon("old-daemon", func(*Proc) {})
	env.Run()
	daemonRec, kickRec := env.free[0], env.free[1]
	env.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	done := false
	env.Go("worker", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		done = true
	})
	if env.live[0] != kickRec || env.live[1] != daemonRec {
		t.Fatal("ticker and worker did not take kick's and old-daemon's records")
	}
	want := Time(5*time.Millisecond + time.Microsecond)
	if end := env.RunUntil(Time(time.Second)); end != want || !done {
		t.Errorf("RunUntil stopped at %v with worker done=%v, want %v and done", end, done, want)
	}
	var got []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KProcStart || ev.Kind == trace.KProcEnd {
			got = append(got, ev.Kind.String()+" "+ev.Track)
		}
	}
	wantEvents := []string{"proc-start kick", "proc-start old-daemon", "proc-end old-daemon", "proc-end kick",
		"proc-start ticker", "proc-start worker", "proc-end worker"}
	if !slices.Equal(got, wantEvents) {
		t.Errorf("lifecycle events %q, want %q", got, wantEvents)
	}
}

// Close kills the live processes in spawn order, whatever order exits have
// left the live list in, so their deferred code runs in the same order in
// every run of the same world.
func TestCloseUnwindsInSpawnOrder(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		never := NewEvent(env)
		var order []string
		for i := 0; i < 32; i++ {
			name := fmt.Sprintf("p%02d", i)
			if i%2 == 1 {
				env.Go(name, func(p *Proc) { p.Sleep(time.Duration(32-i) * time.Microsecond) })
				continue
			}
			env.Go(name, func(p *Proc) {
				defer func() { order = append(order, name) }()
				never.Wait(p)
			})
		}
		env.Run()
		env.Close()
		return order
	}
	var want []string
	for i := 0; i < 32; i += 2 {
		want = append(want, fmt.Sprintf("p%02d", i))
	}
	a, b := run(), run()
	if !slices.Equal(a, want) {
		t.Errorf("Close unwound %v, want spawn order %v", a, want)
	}
	if !slices.Equal(a, b) {
		t.Errorf("two runs of one world unwound in different orders:\n%v\n%v", a, b)
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
		var prev *Event
		for i := 0; i < 2000; i++ {
			d := time.Duration(r.Intn(900)) * time.Microsecond
			switch i % 4 {
			case 0:
				slept := NewEvent(env)
				env.Go(fmt.Sprintf("sleep%d", i), func(c *Proc) {
					c.Sleep(d)
					slept.Trigger()
				})
				prev = slept
			case 1:
				joined := prev
				env.Go(fmt.Sprintf("join%d", i), func(c *Proc) { joined.Wait(c) })
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

// Reusing goroutines and Proc records moves neither the dispatch order nor a
// kernel counter: a long spawn/exit churn gives the end time, event count and
// KernelStats recorded at 8342e4c, before goroutines were reused. The digest
// hashes each event's kind by name, so it does not move when trace.Kind is
// renumbered; at 044d1ba it was re-expressed that way from the numeric form,
// over the same schedule. When Proc.Done went, a join became a wait on an
// event the sleeper triggers as its last act, so each of the 500 joiners'
// sched events now comes just before, not just after, its sleeper's proc-end
// at the same instant; swapping those pairs back gives the digest recorded
// before, ec701f77283565d2.
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
	if got, want := fmt.Sprintf("%d events %016x", len(evs), h.Sum64()), "6003 events ae290f36cdaf1b86"; got != want {
		t.Errorf("trace: %s, want %s", got, want)
	}
	want := KernelStats{EventsDispatched: 4914, HeapPushes: 4915, HeapPops: 4914, Wakeups: 500,
		ProcsSpawned: 2502, ProcsFinished: 2501, QueuePeak: 40, ProcsPeak: 58}
	if got := env.KernelStats(); got != want {
		t.Errorf("kernel stats:\n got %+v\nwant %+v", got, want)
	}
	if len(env.free) > want.ProcsPeak {
		t.Errorf("%d idle goroutines, more than the %d-process peak", len(env.free), want.ProcsPeak)
	}
}

// A steady-state spawn and exit allocates nothing: the Proc record, its
// goroutine and its channel are the previous process's. Before records were
// reused it allocated the Proc (1), and before goroutines were reused a
// channel and a goroutine closure as well (3 in all).
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
	if allocs != 0 {
		t.Errorf("spawn+exit allocates %v objects, want 0", allocs)
	}
}
