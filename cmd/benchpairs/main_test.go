package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestReportVerdicts feeds the report canned result lines, ten pairs of four
// metrics: a gain, a tie, a regression beyond its bound and a metric the
// pairs leave unresolved; and the ungated CPU time, read from its own line,
// which gets worse without being beyond a bound.
func TestReportVerdicts(t *testing.T) {
	metrics := []metricSpec{
		{Name: "host_peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.2},
		{Name: "virt_op_p50_us", Unit: "virt_us", Better: "lower", Bound: 0.2},
		{Name: "host_allocs_per_op", Unit: "count", Better: "lower", Bound: 0.2},
		{Name: "virt_ops_per_sec", Unit: "1/virt_s", Better: "higher", Bound: 0.1},
		cpuMetric,
	}
	line := func(mem, p50, allocs, rate float64) []byte {
		return fmt.Appendf(nil, "trail_burst host_peak_mem_mb %g MB\ntrail_burst host_cpu_us_per_op %g us\n"+
			`{"correct":true,"attempted":64000,"failed":0,"metrics":{"host_peak_mem_mb":{"value":%g,"unit":"MB"},`+
			`"virt_op_p50_us":{"value":%g,"unit":"virt_us"},"host_allocs_per_op":{"value":%g,"unit":"count"},`+
			`"virt_ops_per_sec":{"value":%g,"unit":"1/virt_s"}}}`+"\n", mem, 10*allocs, mem, p50, allocs, rate)
	}
	var ref, head []result
	for i := range 10 {
		rate := 400.0 // the change is faster in 7 pairs of 10
		if i >= 7 {
			rate = 380
		}
		for _, side := range []struct {
			runs *[]result
			out  []byte
		}{
			{&ref, line(150+float64(i), 8566.68, 2.0, 390)},
			{&head, line(40+float64(i), 8566.68, 2.6, rate)},
		} {
			res, err := parseResult(side.out)
			if err != nil {
				t.Fatal(err)
			}
			*side.runs = append(*side.runs, res)
		}
	}
	var buf bytes.Buffer
	beyond := report(&buf, metrics, ref, head)
	want := map[string]string{
		"host_peak_mem_mb":   "154.5 44.5 4.5 10/10 gain",
		"virt_op_p50_us":     "8566.68 8566.68 0 0/10 tie",
		"host_allocs_per_op": "2 2.6 0 0/10 loss, BEYOND BOUND (20%)",
		"virt_ops_per_sec":   "390 400 0 7/10 unresolved",
		"host_cpu_us_per_op": "20 26 0 0/10 loss, ungated",
	}
	for _, l := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(l)
		if len(f) > 2 && want[f[0]] != "" {
			if got := strings.Join(f[2:], " "); got != want[f[0]] {
				t.Errorf("%s: %q, want %q", f[0], got, want[f[0]])
			}
			delete(want, f[0])
		}
	}
	if len(want) > 0 || !beyond {
		t.Errorf("rows missing: %v; beyond the bound reported %v, want true\n%s", want, beyond, buf.String())
	}
	if _, err := parseResult([]byte(`{"correct":false,"metrics":{}}`)); err == nil {
		t.Error("an incorrect run was accepted")
	}
}
