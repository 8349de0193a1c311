package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// world runs a small seeded simulation and renders what it did: sleepers
// drawing from one generator, so the result depends on the schedule.
func world(seed uint64) string {
	env := NewEnv()
	defer env.Close()
	rng := NewRand(seed)
	var b strings.Builder
	for i := range 4 {
		env.Go(fmt.Sprint("p", i), func(p *Proc) {
			for range 20 {
				p.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
				fmt.Fprintf(&b, "%s@%v ", p.Name(), p.Now())
			}
		})
	}
	env.Run()
	return b.String()
}

// Worlds run at once return what they return one after another, in index
// order, at every worker count.
func TestParallelResultsInIndexOrder(t *testing.T) {
	const n = 24
	var want []string
	for i := range n {
		want = append(want, world(uint64(i+1)))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := Parallel(n, func(i int) string { return world(uint64(i + 1)) })
		if len(got) != n {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("GOMAXPROCS=%d: result %d differs from the world run alone", procs, i)
			}
		}
	}
	if got := Parallel(0, func(int) int { panic("called") }); len(got) != 0 {
		t.Errorf("Parallel(0) returned %d results", len(got))
	}
}

// A panicking call is named by its index once every other call has
// finished, and a Goexit (a t.Fatal inside a call) counts as one.
func TestParallelPanicNamesTheIndexAndTheRestFinish(t *testing.T) {
	const n = 9
	finished := make([]bool, n)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		Parallel(n, func(i int) int {
			switch i {
			case 3:
				panic("boom")
			case 5:
				runtime.Goexit()
			}
			world(uint64(i + 1))
			finished[i] = true
			return i
		})
	}()
	for _, want := range []string{"parallel call 3 panicked: boom", "parallel call 5 panicked: runtime.Goexit"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not say %q", msg, want)
		}
	}
	for i, ok := range finished {
		if !ok && i != 3 && i != 5 {
			t.Errorf("call %d did not finish after another panicked", i)
		}
	}
}

// A call may run Parallel itself: each bounds its own goroutines, so one
// worker waiting on its inner calls does not starve them.
func TestParallelNestedCompletesOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sums := Parallel(3, func(i int) int {
		sum := 0
		for _, v := range Parallel(4, func(j int) int { return 10*i + j }) {
			sum += v
		}
		return sum
	})
	if fmt.Sprint(sums) != "[6 46 86]" {
		t.Errorf("nested sums %v, want [6 46 86]", sums)
	}
}

// Every goroutine Parallel starts has exited once it returns or panics.
func TestParallelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	Parallel(16, func(i int) string {
		Parallel(2, func(j int) int { return j })
		return world(uint64(i + 1))
	})
	func() {
		defer func() { _ = recover() }()
		Parallel(4, func(i int) int {
			if i == 2 {
				panic("boom")
			}
			return i
		})
	}()
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines after Parallel, %d before", n, before)
	}
}
