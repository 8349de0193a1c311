// Package benchfmt defines the machine-readable benchmark summary schema
// shared by its writers (cmd/reproduce -json, trailsim -out) and the
// regression gate (cmd/rundiff). The on-disk form is JSON with struct fields in
// declaration order and map keys sorted, so a file is byte-deterministic for
// a given simulation seed — two runs of the same tree produce identical
// bytes, and any diff is a real behaviour change.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"tracklog/internal/telemetry"
)

// Entry is one benchmark configuration's latency distribution plus an
// optional driver counter snapshot and optional throughput rates.
type Entry struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	// Rates holds higher-is-better metrics (events_per_virtual_sec,
	// branches_per_virtual_sec): the gate fails when a current rate falls
	// BELOW base*(1-tolerance), the inverse of the latency direction.
	// Values must be virtual-time rates — wall-clock rates are
	// nondeterministic and belong in the telemetry wall side-channel, not
	// in a byte-compared summary.
	Rates    map[string]float64 `json:"rates,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
}

// Latency starts an entry from a latency distribution: its count, mean, p50
// and p99.
func Latency(name string, lat *telemetry.Summary) Entry {
	return Entry{
		Name:   name,
		Count:  lat.Count(),
		MeanUS: US(lat.Mean()),
		P50US:  US(lat.Quantile(0.50)),
		P99US:  US(lat.Quantile(0.99)),
	}
}

// US converts a duration to the entries' microseconds.
func US(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// File is the benchmark summary schema (BENCH_trail.json).
type File struct {
	Seed        uint64  `json:"seed"`
	Experiments []Entry `json:"experiments"`
}

// Entry returns the named experiment, or nil.
func (f *File) Entry(name string) *Entry {
	for i := range f.Experiments {
		if f.Experiments[i].Name == name {
			return &f.Experiments[i]
		}
	}
	return nil
}

// ReadFile loads a benchmark summary.
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a benchmark summary.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing: %w", err)
	}
	return &f, nil
}

// WriteFile stores f at path, byte-deterministically.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Tolerance is the relative regression bound of every metric. For the
// latency metrics (lower is better) a current value above
// base*(1+Tolerance) is a regression; for rates (higher is better) a
// current value below base*(1-Tolerance) is.
const Tolerance = 0.10

// Delta is one metric's change between a baseline and a current run.
type Delta struct {
	Name   string  // experiment name
	Metric string  // "mean", "p50", "p99", or a rate name
	Base   float64 // baseline value (µs for latency metrics)
	Cur    float64 // current value
	// Pct is the relative change in percent, signed so that positive
	// always means worse: slower for latency metrics, lower throughput
	// for rates. A change from a zero baseline is unbounded: ±Inf.
	Pct float64
	// HigherIsBetter marks rate metrics, where the regression direction
	// is inverted.
	HigherIsBetter bool
	// Regressed marks deltas beyond Tolerance.
	Regressed bool
}

// Compare diffs every baseline experiment against cur. It returns all metric
// deltas (baseline order; mean/p50/p99 then sorted rate names per
// experiment) and the names of baseline experiments missing from cur — a
// missing experiment always fails the gate, since silently dropping a
// benchmark hides regressions. A rate present in the baseline but absent
// from the current entry compares as zero, so dropping a rate metric also
// fails the gate.
func Compare(base, cur *File) (deltas []Delta, missing []string) {
	for _, be := range base.Experiments {
		ce := cur.Entry(be.Name)
		if ce == nil {
			missing = append(missing, be.Name)
			continue
		}
		for _, m := range []struct {
			metric string
			b, c   float64
		}{
			{"mean", be.MeanUS, ce.MeanUS},
			{"p50", be.P50US, ce.P50US},
			{"p99", be.P99US, ce.P99US},
		} {
			deltas = append(deltas, Delta{Name: be.Name, Metric: m.metric, Base: m.b, Cur: m.c,
				Pct: relPct(m.b, m.c-m.b), Regressed: m.c > m.b*(1+Tolerance)})
		}
		rateNames := make([]string, 0, len(be.Rates))
		for rn := range be.Rates {
			rateNames = append(rateNames, rn)
		}
		sort.Strings(rateNames)
		for _, rn := range rateNames {
			b := be.Rates[rn]
			c := ce.Rates[rn] // zero when absent: a dropped rate gates as a full regression
			// Sign flipped so positive = worse, matching latency deltas.
			deltas = append(deltas, Delta{Name: be.Name, Metric: rn, Base: b, Cur: c, HigherIsBetter: true,
				Pct: relPct(b, b-c), Regressed: c < b*(1-Tolerance)})
		}
	}
	sort.Strings(missing)
	return deltas, missing
}

// relPct expresses worse, a change from base signed positive-is-worse, in
// percent of base. From a zero base any change is unbounded (±Inf); a
// negative base reports 0.
func relPct(base, worse float64) float64 {
	switch {
	case base > 0:
		return worse / base * 100
	case base == 0 && worse > 0:
		return math.Inf(1)
	case base == 0 && worse < 0:
		return math.Inf(-1)
	}
	return 0
}
