package sim

import (
	"fmt"
	"testing"
	"time"
)

// The kernel's rungs of the per-layer benchmark ladder (ROADMAP): one
// number per dispatch shape, so a change to the kernel names the shape it
// moved. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/sim

// One process sleeping alone: every wake-up is its own, so dispatch is a
// heap push and pop on the process's own goroutine.
func BenchmarkSleepSelfWake(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// Two processes waking each other through one-shot events: each wake is one
// direct goroutine hand-off (the new Event per round is the allocation).
func BenchmarkHandoffPingPong(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	ping, pong := NewEvent(env), NewEvent(env)
	env.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Trigger()
			pong.Wait(p)
			pong = NewEvent(env)
		}
	})
	env.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			ping = NewEvent(env)
			pong.Trigger()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// Two processes sleeping alternately — a log disk and a data disk each
// stepping sector by sector. Neither is ever alone in the queue, so every
// event still costs one goroutine switch.
func BenchmarkSleepInterleaved(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	for _, offset := range []time.Duration{0, time.Microsecond} {
		env.Go("sleeper", func(p *Proc) {
			p.Sleep(offset)
			for i := 0; i < b.N/2; i++ {
				p.Sleep(2 * time.Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// The event queue alone, held at a fixed depth: pop the earliest entry and
// push one later than it, at a pseudo-random distance.
func BenchmarkQueuePushPop(b *testing.B) {
	for _, depth := range []int{1, 64, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := NewRand(1)
			var q eventQueue
			var seq int64
			push := func(from Time) {
				seq++
				q.push(queued{at: from + Time(r.Intn(1<<20)), seq: seq})
			}
			for i := 0; i < depth; i++ {
				push(0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := q[0].at
				q.pop()
				push(at)
			}
		})
	}
}

// Process churn: spawn, first dispatch, exit. An exited process's goroutine
// runs the next spawn, so the Proc is the one allocation (3 allocs/op and
// ~1.2 us before goroutines were reused, 1 and ~0.5-0.7 us after, on a
// 2-core Xeon).
func BenchmarkSpawnExit(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Go("p", func(*Proc) {})
		if i%1024 == 1023 {
			env.Run()
		}
	}
	env.Run()
}
