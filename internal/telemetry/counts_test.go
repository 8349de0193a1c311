package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A nil Counts — the zero value — reads as an empty set: optional telemetry
// is threaded through layers that may never build one.
func TestCountsZeroValue(t *testing.T) {
	var c Counts
	if c["a"] != 0 || len(c) != 0 {
		t.Fatalf("zero-value counts: a=%d len=%d", c["a"], len(c))
	}
	if got := c.String(); got != "(none)" {
		t.Fatalf("zero-value String = %q", got)
	}
	if got := (Counts{}).String(); got != "(none)" {
		t.Fatalf("empty String = %q", got)
	}
	c.Merge(nil) // merging nothing into nil is a no-op, not a panic
	into := Counts{"x": 1}
	into.Merge(c)
	if len(into) != 1 || into["x"] != 1 {
		t.Fatalf("merging a nil set changed the receiver: %v", into)
	}
}

// Merge adds by name, creating counters the receiver lacks.
func TestCountsMerge(t *testing.T) {
	c := Counts{}
	c.Merge(Counts{"x": 4})
	c.Merge(Counts{"x": 3, "y": -1})
	if c["x"] != 7 || c["y"] != -1 || len(c) != 2 {
		t.Fatalf("merged = %v", c)
	}
}

// Merge copies values: the merged-in set and the receiver stay independent.
func TestCountsMergeIsCopy(t *testing.T) {
	c, other := Counts{}, Counts{"x": 1}
	c.Merge(other)
	other["x"] = 99
	other["y"] = 1
	if c["x"] != 1 || c["y"] != 0 {
		t.Fatal("Merge aliases the merged-in map")
	}
	c["x"] = 5
	if other["x"] != 99 {
		t.Fatal("receiver edits leak into the merged-in map")
	}
}

// String renders sorted by name so output is comparable across runs; names
// print as given (dots are kept), values as integers.
func TestCountsStringSorted(t *testing.T) {
	c := Counts{"zeta": 1, "alpha": 2, "trail.mid": -3}
	if got, want := c.String(), "alpha=2 trail.mid=-3 zeta=1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// CounterFuncs registers one live series per name of the first snapshot,
// under CounterName, and reads snap again at export time.
func TestCounterFuncs(t *testing.T) {
	writes := int64(3)
	snap := func() Counts { return Counts{"trail.writes": writes, "reads_total": 1} }
	r := NewRegistry()
	r.CounterFuncs(snap, Label{Key: "array", Value: "md0"})
	writes = 8
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP tracklog_trail_writes_total Value of counter \"trail.writes\".\n# TYPE tracklog_trail_writes_total counter\n",
		"tracklog_trail_writes_total{array=\"md0\"} 8\n",
		"tracklog_reads_total{array=\"md0\"} 1\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("export missing %q:\n%s", want, sb.String())
		}
	}
	var disabled *Registry
	disabled.CounterFuncs(func() Counts { t.Error("snap called on a nil registry"); return nil })
}

// WriteFile writes the Prometheus text exposition whatever the file name;
// a nil registry writes no file.
func TestRegistryWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "h").Add(2)
	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"m.prom", "m.json", "m"} {
		want := prom.String()
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s: err %v, holds\n%s\nwant\n%s", name, err, got, want)
		}
	}
	if err := r.WriteFile(filepath.Join(dir, "missing", "m.prom")); err == nil {
		t.Error("no error writing into a missing directory")
	}
	var disabled *Registry
	path := filepath.Join(dir, "nil.prom")
	if err := disabled.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("nil registry wrote %s", path)
	}
}
