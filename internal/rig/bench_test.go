package rig

import (
	"runtime"
	"testing"
)

// The rig's rung of the per-layer benchmark ladder (ROADMAP): host cost of
// building the paper system, one ST41601N log disk and one WD Caviar data
// disk behind a started Trail driver, which is nearly all of the
// trail_burst workload's set-up. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/rig
//
// On a 2-core Xeon: 0.29 ms, 604 628 B and 78 allocations a build while the
// log allocator held two tables the size of the log disk; 37 us, 31 083 B
// and 77 since it indexes tracks by arithmetic.
func BenchmarkNewSystem(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// TestNewSystemAllocations holds the build of the paper system to 64 KiB: no
// table sized by the disk is built before anything is simulated.
func TestNewSystemAllocations(t *testing.T) {
	const builds = 20
	var bytes uint64
	for i := 0; i < builds; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := New(Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if per := bytes / builds; per > 64<<10 {
		t.Errorf("building the paper system allocates %d B, want at most %d", per, 64<<10)
	}
}
