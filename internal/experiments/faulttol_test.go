package experiments

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestFaultToleranceDeterministic is the acceptance scenario at the
// section's default sizing: the seeded workload (3 latent errors and 1
// timeout per drive, which FaultTolerance fails without) must render
// byte-identical metrics across two runs, no write may fail under a
// retryable scenario, no read may return corrupt data, and the RAID-5 array
// must hide the single-device damage completely.
func TestFaultToleranceDeterministic(t *testing.T) {
	run := func() *FaultToleranceResult {
		res, err := FaultTolerance(DefaultSizing().Writes, 42)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first, second := run(), run()
	if a, b := first.String(), second.String(); a != b {
		t.Errorf("two seeded runs differ:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	for _, row := range first.Rows {
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
}

// TestFaultToleranceSectionGolden pins the ext-faulttol section's text at the
// default sizing and seed to its length and digest, recorded when the RAID
// counters lost the scrubber's and the admission gate's always-zero names and
// re-pinned when the scenario's timeout window shrank to 50 commands and a
// final pass began reading every slot, so that every fault kind fires, and
// when the load became an open one run through runFaultWorld, whose ledger
// reads back every acknowledged write.
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
	if got, want := fmt.Sprintf("%d bytes %016x", len(text), h.Sum64()), "1077 bytes 0a83bfb63be676c6"; got != want {
		t.Errorf("ext-faulttol: %s, want %s\n%s", got, want, text)
	}
}
