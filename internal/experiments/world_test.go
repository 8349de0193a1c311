package experiments

import (
	"errors"
	"strings"
	"testing"

	"tracklog/internal/trail"
)

// TestVerdictNamesThePoint feeds verdict a clean Trail outcome, which
// passes, and then that outcome with one verdict broken at a time. Each must
// fail the point with an error that names it and says what broke.
func TestVerdictNamesThePoint(t *testing.T) {
	const point = "threshold 0.30"
	clean := func() outcome {
		return outcome{
			trail:   &trail.Stats{Records: 3, LoggedSectors: 9},
			logs:    []logCount{{sectors: 5, writes: 2}, {sectors: 7, writes: 1}},
			targets: 4,
		}
	}
	o := clean()
	if err := o.verdict(point); err != nil {
		t.Fatalf("clean outcome: %v", err)
	}
	for _, tc := range []struct {
		name  string
		broke func(o *outcome)
		want  string
	}{
		{"lost write", func(o *outcome) { o.lost = 1 }, "1 of 4 acknowledged writes read back other data"},
		{"unread target", func(o *outcome) { o.unread = 2 }, "read-back stopped before 2 of 4 acknowledged writes"},
		{"failed read", func(o *outcome) { o.readErrs = 1 }, "1 of 4 acknowledged writes failed to read back"},
		{"unclassified error", func(o *outcome) { o.unclassified = []error{errors.New("bad lba")} }, "error wraps no device sentinel: bad lba"},
		{"invariant error", func(o *outcome) { o.invariants = errors.New("staging holds an unlogged block") }, "staging holds an unlogged block"},
		{"records law", func(o *outcome) { o.logs[1].sectors++ }, "log disks wrote 13 sectors, not 9 logged + 3 record headers"},
	} {
		o := clean()
		tc.broke(&o)
		err := o.verdict(point)
		if err == nil || !strings.HasPrefix(err.Error(), point+": ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: verdict = %v, want an error naming %q and saying %q", tc.name, err, point, tc.want)
		}
	}
}
