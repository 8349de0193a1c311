package timeline

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"tracklog/internal/telemetry"
)

// ErrBadTimeline is the sentinel wrapped by every Parse failure. Callers
// gate on errors.Is(err, ErrBadTimeline); the wrapping message carries the
// line number.
var ErrBadTimeline = errors.New("malformed timeline export")

// csvHeader is the fixed column header of the CSV exposition.
const csvHeader = "component,track,series,kind,bucket,value"

// value renders bucket i of s in its exposition form: exact integers for
// occupancy and count series, shortest-exact floats (the time-weighted
// bucket mean) for meter series.
func (s *series) value(i int, bucketNS int64) (string, bool) {
	if s.kind == kindMean {
		w := s.floats[i]
		if w == 0 {
			return "", false
		}
		return telemetry.FormatValue(w / float64(bucketNS)), true
	}
	v := s.ints[i]
	if v == 0 {
		return "", false
	}
	return strconv.FormatInt(v, 10), true
}

// WriteCSV writes the byte-deterministic CSV exposition: a version line
// carrying the bucket width and run horizon, the fixed column header, then
// one row per non-zero bucket, sorted by (component, track, series) with
// buckets ascending within each series. Zero buckets and all-zero series
// are omitted. Call Finish before exporting.
func (a *Aggregator) WriteCSV(w io.Writer) error {
	if a == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# tracklog-timeline v1 bucket_ns=%d end_ns=%d\n", a.bucketNS, a.endNS)
	fmt.Fprintln(bw, csvHeader)
	for _, s := range a.sortedSeries() {
		n := len(s.ints)
		if s.kind == kindMean {
			n = len(s.floats)
		}
		for i := 0; i < n; i++ {
			v, ok := s.value(i, a.bucketNS)
			if !ok {
				continue
			}
			fmt.Fprintf(bw, "%s,%s,%s,%s,%d,%s\n", s.component, s.track, s.name, s.kind, i, v)
		}
	}
	return bw.Flush()
}

// WriteFile exports the finished aggregator to path in the CSV exposition.
// A nil aggregator writes no file.
func (a *Aggregator) WriteFile(path string) error {
	if a == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Timeline is a parsed export: what rundiff aligns and diffs.
type Timeline struct {
	BucketNS int64
	EndNS    int64
	Series   []Series
}

// Series is one parsed (component, track, name) stream.
type Series struct {
	Component, Track, Name, Kind string
	Points                       []Point
}

// Point is one non-zero bucket.
type Point struct {
	Bucket int64
	Value  float64
}

// Key returns the series identity used for cross-run alignment.
func (s *Series) Key() string { return s.Component + "/" + s.Track + "/" + s.Name }

// Lookup returns the series with the given identity, or nil.
func (t *Timeline) Lookup(component, track, name string) *Series {
	if t == nil {
		return nil
	}
	for i := range t.Series {
		s := &t.Series[i]
		if s.Component == component && s.Track == track && s.Name == name {
			return s
		}
	}
	return nil
}

// Buckets returns the number of buckets covered by the run horizon.
func (t *Timeline) Buckets() int64 {
	if t == nil || t.BucketNS <= 0 {
		return 0
	}
	return (t.EndNS + t.BucketNS - 1) / t.BucketNS
}

// badLine wraps ErrBadTimeline with a line number and reason.
func badLine(n int, format string, args ...interface{}) error {
	return fmt.Errorf("timeline line %d: %s: %w", n, fmt.Sprintf(format, args...), ErrBadTimeline)
}

var kindNames = map[string]bool{
	kindOccupancy.String(): true,
	kindMean.String():      true,
	kindCount.String():     true,
}

// Parse reads a CSV exposition as written by WriteCSV. It is strict: the
// version line, header, sort order, and bucket monotonicity are all
// enforced, so any accepted input is byte-reproducible by re-export. All
// failures wrap ErrBadTimeline (never panic), making this the fuzz surface
// for FuzzTimelineRoundTrip and the loader rundiff builds on.
func Parse(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	line := 0
	next := func() (string, bool) {
		if !sc.Scan() {
			return "", false
		}
		line++
		return sc.Text(), true
	}

	head, ok := next()
	if !ok {
		return nil, badLine(1, "missing version line")
	}
	var t Timeline
	if n, err := fmt.Sscanf(head, "# tracklog-timeline v1 bucket_ns=%d end_ns=%d", &t.BucketNS, &t.EndNS); n != 2 || err != nil {
		return nil, badLine(1, "bad version line %q", head)
	}
	if t.BucketNS <= 0 || t.EndNS < 0 {
		return nil, badLine(1, "bad bucket_ns/end_ns in %q", head)
	}
	if h, ok := next(); !ok || h != csvHeader {
		return nil, badLine(line+1, "missing column header")
	}

	var cur *Series
	for {
		row, ok := next()
		if !ok {
			break
		}
		if row == "" {
			return nil, badLine(line, "blank line")
		}
		f := strings.Split(row, ",")
		if len(f) != 6 {
			return nil, badLine(line, "want 6 fields, got %d", len(f))
		}
		comp, track, name, kind := f[0], f[1], f[2], f[3]
		if comp == "" || track == "" || name == "" {
			return nil, badLine(line, "empty series identity")
		}
		if !kindNames[kind] {
			return nil, badLine(line, "unknown kind %q", kind)
		}
		bucket, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil || bucket < 0 {
			return nil, badLine(line, "bad bucket %q", f[4])
		}
		val, err := strconv.ParseFloat(f[5], 64)
		if err != nil || val == 0 {
			return nil, badLine(line, "bad value %q", f[5])
		}
		if cur != nil && cur.Component == comp && cur.Track == track && cur.Name == name {
			if kind != cur.Kind {
				return nil, badLine(line, "kind changed mid-series")
			}
			if bucket <= cur.Points[len(cur.Points)-1].Bucket {
				return nil, badLine(line, "buckets not ascending")
			}
		} else {
			if cur != nil && !seriesLess(cur, comp, track, name) {
				return nil, badLine(line, "series out of order")
			}
			t.Series = append(t.Series, Series{Component: comp, Track: track, Name: name, Kind: kind})
			cur = &t.Series[len(t.Series)-1]
		}
		cur.Points = append(cur.Points, Point{Bucket: bucket, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("timeline: %v: %w", err, ErrBadTimeline)
	}
	return &t, nil
}

// seriesLess reports whether cur sorts strictly before (comp, track, name).
func seriesLess(cur *Series, comp, track, name string) bool {
	if cur.Component != comp {
		return cur.Component < comp
	}
	if cur.Track != track {
		return cur.Track < track
	}
	return cur.Name < name
}

// ParseFile reads and parses a timeline export from disk.
func ParseFile(path string) (*Timeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}
