package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"trail.writes", "trail_writes"},
		{"already_ok_123", "already_ok_123"},
		{"weird themes/slash", "weird_themes_slash"},
	} {
		if got := PromName(tc.in); got != tc.want {
			t.Errorf("PromName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestCounterName(t *testing.T) {
	if got := CounterName("trail.writes"); got != "tracklog_trail_writes_total" {
		t.Errorf("CounterName = %q", got)
	}
	// Already-suffixed names are not doubled.
	if got := CounterName("reads_total"); got != "tracklog_reads_total" {
		t.Errorf("CounterName = %q", got)
	}
}

// Exposition escaping happens in exactly one place; these are the cases the
// old hand-rolled exporters got wrong or never handled.
func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc", "help with \\ and\nnewline", Label{Key: "k", Value: "a\"b\\c\nd"})
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# HELP esc help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc{k="a\"b\\c\nd"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// And the quote-aware parser must take it back.
	vals, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, ok := vals[`esc{k="a\"b\\c\nd"}`]; !ok {
		t.Errorf("escaped sample not parsed: %v", vals)
	}
}

// One HELP/TYPE header per metric name, even when the name has several
// labeled series.
func TestHeaderOncePerName(t *testing.T) {
	r := NewRegistry()
	r.Counter("multi", "h", Label{Key: "d", Value: "0"})
	r.Counter("multi", "h", Label{Key: "d", Value: "1"})
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "# HELP multi"); n != 1 {
		t.Errorf("HELP emitted %d times, want 1:\n%s", n, sb.String())
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []float64{1, 2}, Label{Key: "d", Value: "0"})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{d="0",le="1"} 1`,
		`lat_bucket{d="0",le="2"} 2`,
		`lat_bucket{d="0",le="+Inf"} 3`,
		`lat_sum{d="0"} 11`,
		`lat_count{d="0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	vals, err := ParseProm(strings.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if vals[`lat_bucket{d="0",le="+Inf"}`] != 3 {
		t.Errorf("+Inf bucket = %v", vals[`lat_bucket{d="0",le="+Inf"}`])
	}
}

// Export order is sorted (name, label signature), independent of
// registration order — the byte-determinism contract.
func TestExpositionOrderIsSorted(t *testing.T) {
	build := func(flip bool) string {
		r := NewRegistry()
		if flip {
			r.Counter("b", "h")
			r.Counter("a", "h", Label{Key: "d", Value: "1"})
			r.Counter("a", "h", Label{Key: "d", Value: "0"})
		} else {
			r.Counter("a", "h", Label{Key: "d", Value: "0"})
			r.Counter("a", "h", Label{Key: "d", Value: "1"})
			r.Counter("b", "h")
		}
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build(false) != build(true) {
		t.Errorf("exposition depends on registration order:\n%s\nvs\n%s", build(false), build(true))
	}
}

func TestParsePromErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		// wantErr is a substring of the error message: every parse error
		// carries the 1-based line number of the offending sample.
		wantErr string
	}{
		{"no value", "just_a_name\n", `prom line 1: no value in "just_a_name"`},
		{"bad value", "x notanumber\n", "prom line 1:"},
		{"duplicate", "x 1\nx 2\n", `prom line 2: duplicate metric "x"`},
		{"duplicate labeled series", `x{k="v"} 1` + "\n" + `x{k="v"} 2` + "\n", `prom line 2: duplicate metric "x{k=\"v\"}"`},
		{"duplicate after comments", "# HELP x h\nx 1\n\n# TYPE x counter\nx 2\n", `prom line 5: duplicate metric "x"`},
		{"unterminated labels", `x{k="v" 1` + "\n", "prom line 1:"},
	} {
		_, err := ParseProm(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// Distinct label sets on one name are distinct samples, not duplicates, and
// a duplicate-free export round-trips.
func TestParsePromAcceptsDistinctLabelSets(t *testing.T) {
	vals, err := ParseProm(strings.NewReader(`x{k="a"} 1` + "\n" + `x{k="b"} 2` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if vals[`x{k="a"}`] != 1 || vals[`x{k="b"}`] != 2 {
		t.Errorf("parsed %v", vals)
	}
}

// FuzzParseProm holds the one writer and the one parser to each other: a
// series with an arbitrary name, label and help text round-trips through
// WriteProm and ParseProm to the same key and value, and hostile bytes come
// back as an error or a map, never a panic.
func FuzzParseProm(f *testing.F) {
	f.Add("trail.writes", "disk", "log0", "plain help", 3.5, []byte("x{k=\"a\"} 1\nx{k=\"b\"} 2\n"))
	f.Add("weird name/slash", "k\"ey", "a\"b\\c\nd}", "help with \\ and\nnewline", math.NaN(), []byte(`x{k="v" 1`))
	f.Add("", "", "", "", math.Inf(-1), []byte("# HELP only\n\n{} 1\nm NaN\nm 2\n"))
	f.Add("n", "le", "+Inf", "#", -0.0, []byte("just_a_name\nx notanumber\n\\\"{\\"))
	f.Add("n", "k", "v", "h", 1.0, append([]byte("x 1\n"), bytes.Repeat([]byte("y"), 70000)...)) // past the scanner's token limit
	f.Fuzz(func(t *testing.T, name, key, value, help string, v float64, raw []byte) {
		if vals, err := ParseProm(bytes.NewReader(raw)); (err == nil) == (vals == nil) {
			t.Fatalf("hostile input: vals %v, err %v — want exactly one", vals, err)
		}
		if len(name)+len(key)+len(value) > 4096 {
			t.Skip("sample line past the scanner's token limit")
		}
		r := NewRegistry()
		r.GaugeFunc(name, help, func() float64 { return v }, Label{Key: key, Value: value})
		var sb strings.Builder
		if err := r.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		vals, err := ParseProm(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("own export does not parse: %v\n%s", err, sb.String())
		}
		want := seriesKey(PromName(name), []Label{{Key: PromName(key), Value: value}})
		got, ok := vals[want]
		if !ok || len(vals) != 1 {
			t.Fatalf("parsed %v, want the one key %q\n%s", vals, want, sb.String())
		}
		if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("value %v came back as %v", v, got)
		}
	})
}
