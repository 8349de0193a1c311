package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestFaultToleranceDeterministic is the acceptance scenario: the seeded
// workload (3 latent errors + 1 timeout over 1000 writes) must render
// byte-identical metrics across two runs, and the RAID-5 array must hide
// the single-device damage completely.
func TestFaultToleranceDeterministic(t *testing.T) {
	run := func() *FaultToleranceResult {
		res, err := FaultTolerance(1000, 42)
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

// TestFaultToleranceSectionGolden pins the ext-faulttol section's text at the
// default sizing and seed to its length and digest, recorded when the RAID
// counters lost the scrubber's and the admission gate's always-zero names.
func TestFaultToleranceSectionGolden(t *testing.T) {
	secs, err := Select("ext-faulttol")
	if err != nil {
		t.Fatal(err)
	}
	text, _, err := secs[0].Run(DefaultSizing(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(text))
	if got, want := fmt.Sprintf("%d bytes %016x", len(text), h.Sum64()), "1065 bytes cb9a1deef284dd9c"; got != want {
		t.Errorf("ext-faulttol: %s, want %s\n%s", got, want, text)
	}
}
