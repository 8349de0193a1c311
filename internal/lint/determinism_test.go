package lint

import "testing"

func TestDeterminismMapRangeFixture(t *testing.T) {
	RunFixture(t, "testdata/src/tracklog/internal/sched", Determinism)
}

func TestDeterminismSchedulingSinkFixture(t *testing.T) {
	// Kernel scheduling calls inside a map-range body, directly and behind a
	// helper: the shape of txn.releaseAll before it released in key order.
	RunFixture(t, "testdata/src/tracklog/internal/txn", Determinism)
}

func TestDeterminismIndirectFixture(t *testing.T) {
	// Banned rand reached across a package boundary, and a map-range body
	// whose sink hides behind a helper call.
	RunFixture(t, "testdata/src/tracklog/internal/detind/...", Determinism)
}

func TestDeterminismRandExemption(t *testing.T) {
	// rand.go inside (normalized) tracklog/internal/sim is exempt; every
	// other file in the same package is not.
	RunFixture(t, "testdata/src/tracklog/internal/sim", Determinism)
}
