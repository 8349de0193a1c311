package experiments

import (
	"strings"
	"testing"
)

func TestClusterSweep(t *testing.T) {
	res, err := Cluster([]int{2, 4}, 24, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Acked == 0 {
			t.Errorf("%d shards: nothing acked", pt.Shards)
		}
		if pt.Failed != 0 {
			t.Errorf("%d shards: %d writes failed on a healthy cluster", pt.Shards, pt.Failed)
		}
		if pt.ReadsFailed != 0 {
			t.Errorf("%d shards: %d reads failed on a healthy cluster", pt.Shards, pt.ReadsFailed)
		}
		if pt.WP99 <= 0 || pt.AckedPerSec <= 0 {
			t.Errorf("%d shards: degenerate point %+v", pt.Shards, pt)
		}
	}
	if !strings.Contains(res.String(), "Cluster scale-out") {
		t.Error("table header missing")
	}
}
