package experiments

import (
	"testing"

	"tracklog/internal/sched"
)

func TestThresholdSweepTradeoff(t *testing.T) {
	res, err := ThresholdSweep(80, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := res.Rows[0], res.Rows[3]
	// Low threshold repositions far more often and wastes space.
	if lo.Repositions <= hi.Repositions {
		t.Errorf("repositions: 5%%=%d vs 50%%=%d", lo.Repositions, hi.Repositions)
	}
	if lo.AvgTrackUtil >= hi.AvgTrackUtil {
		t.Errorf("track util: 5%%=%.2f vs 50%%=%.2f", lo.AvgTrackUtil, hi.AvgTrackUtil)
	}
}

func TestReadPriorityHelpsReads(t *testing.T) {
	res, err := ReadPriorityAblation(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	var prio, plain ReadPriorityRow
	for _, row := range res.Rows {
		if row.Policy == sched.ReadPriorityLOOK {
			prio = row
		} else {
			plain = row
		}
	}
	if prio.MeanReadTime >= plain.MeanReadTime {
		t.Errorf("read priority mean %v >= plain %v", prio.MeanReadTime, plain.MeanReadTime)
	}
}

func TestMultiLogAblationHidesRepositioning(t *testing.T) {
	res, err := MultiLogAblation(80, 3)
	if err != nil {
		t.Fatal(err)
	}
	one, two := res.Rows[0], res.Rows[1]
	if two.Elapsed >= one.Elapsed {
		t.Errorf("2 log disks elapsed %v >= 1 log disk %v", two.Elapsed, one.Elapsed)
	}
}

func TestRecoveryOptimizationsAblation(t *testing.T) {
	res, err := RecoveryOptimizationsAblation(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NoBinarySearch.LocateTime <= res.Baseline.LocateTime*10 {
		t.Errorf("sequential scan %v not vastly slower than binary search %v",
			res.NoBinarySearch.LocateTime, res.Baseline.LocateTime)
	}
	if res.NoLogHead.RecordsFound < res.Baseline.RecordsFound {
		t.Errorf("unbounded walk found fewer records (%d) than bounded (%d)",
			res.NoLogHead.RecordsFound, res.Baseline.RecordsFound)
	}
	if res.NoBinarySearch.RecordsFound != res.Baseline.RecordsFound {
		t.Errorf("scan strategies disagree on records: %d vs %d",
			res.NoBinarySearch.RecordsFound, res.Baseline.RecordsFound)
	}
}
