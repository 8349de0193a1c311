// Package trail is a virtualtime fixture: its normalized path is
// tracklog/internal/trail, squarely inside the simulated-path set.
package trail

import "time"

// Durations and time constants are legal: they carry no wall-clock reading.
const window = 5 * time.Millisecond

func budget(d time.Duration) time.Duration { return d + window }

func bad() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	time.Sleep(window)       // want `time\.Sleep reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func badValues() {
	_ = time.After(window) // want `time\.After reads the wall clock`
	// Referencing (not calling) a banned entry point is just as wrong.
	f := time.Now // want `time\.Now reads the wall clock`
	_ = f
	t := time.NewTicker(window) // want `time\.NewTicker reads the wall clock`
	t.Stop()
}
