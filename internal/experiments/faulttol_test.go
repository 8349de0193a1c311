package experiments

import (
	"testing"

	"tracklog/internal/fault"
)

// TestFaultToleranceDeterministic is the acceptance scenario: the seeded
// ISSUE workload (3 latent errors + 1 timeout over 1000 writes) must render
// byte-identical metrics across two runs, and the RAID-5 array must hide
// the single-device damage completely.
func TestFaultToleranceDeterministic(t *testing.T) {
	cfg := fault.Config{LatentReadErrors: 3, Timeouts: 1}
	run := func() *FaultToleranceResult {
		res, err := FaultTolerance(1000, 42, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if a, b := first.String(), second.String(); a != b {
		t.Errorf("two seeded runs differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}

	var fired int64
	for _, row := range first.Rows {
		fired += row.Counters["fault.media_errors"] + row.Counters["fault.timeouts"]
		if row.WriteErrors != 0 {
			t.Errorf("%s: %d writes failed under a retryable scenario", row.System, row.WriteErrors)
		}
		if row.CorruptReads != 0 {
			t.Errorf("%s: %d reads returned corrupt data", row.System, row.CorruptReads)
		}
		if row.System == "raid5" && row.ReadErrors != 0 {
			t.Errorf("raid5: %d read errors despite parity redundancy", row.ReadErrors)
		}
	}
	if fired == 0 {
		t.Error("no injected fault ever triggered; scenario is vacuous")
	}
}
