package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Parallel calls fn(0), ..., fn(n-1), at most GOMAXPROCS of them at once,
// each on a goroutine of its own, and returns their results in index order.
//
// The calls must share nothing: each builds, runs and closes the worlds it
// uses (an Env is not safe for concurrent use) and reads only what no other
// call writes. A world's bytes then follow from its inputs alone, so what
// Parallel returns does not depend on GOMAXPROCS or on how the calls
// interleave in host time.
//
// A call that panics does not stop the others. Once every call has returned,
// Parallel panics with an error naming each index that did. Every call to
// Parallel bounds its own goroutines, so fn may call Parallel itself; no
// goroutine it starts outlives it.
func Parallel[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	failed := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			returned := false
			defer func() {
				if r := recover(); !returned {
					if r == nil {
						r = "runtime.Goexit"
					}
					failed[i] = fmt.Errorf("sim: parallel call %d panicked: %v", i, r)
				}
				<-slots
				wg.Done()
			}()
			out[i] = fn(i)
			returned = true
		}()
	}
	wg.Wait()
	if err := errors.Join(failed...); err != nil {
		panic(err)
	}
	return out
}
