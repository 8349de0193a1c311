package timeline

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilDisabled(t *testing.T) {
	var a *Aggregator
	if a.BucketNS() != 0 {
		t.Fatalf("nil BucketNS = %d", a.BucketNS())
	}
	l := a.Lane("disk", "log0", []string{"idle", "seek"})
	m := a.Meter("sched", "log0", "queue_depth")
	k := a.Mark("trail", "driver", "shed_writes")
	if l != nil || m != nil || k != nil {
		t.Fatal("nil aggregator must hand out nil instruments")
	}
	// Every operation on disabled handles is a no-op, never a panic.
	l.Enter(1, 100)
	m.Set(3, 100)
	m.Add(-1, 200)
	k.Inc(100)
	k.Add(5, 200)
	a.Finish(1000)
	if err := a.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "nil.csv")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("nil aggregator wrote %s", path)
	}
}

func TestNilDisabledZeroAlloc(t *testing.T) {
	var a *Aggregator
	l := a.Lane("disk", "log0", []string{"idle", "seek"})
	m := a.Meter("sched", "log0", "queue_depth")
	k := a.Mark("trail", "driver", "shed")
	n := testing.AllocsPerRun(100, func() {
		l.Enter(1, 100)
		m.Add(1, 100)
		k.Inc(100)
	})
	if n != 0 {
		t.Fatalf("disabled instruments allocated %v per op", n)
	}
}

func TestLaneOccupancySplitsBuckets(t *testing.T) {
	a := New(100 * time.Nanosecond)
	l := a.Lane("disk", "log0", []string{"idle", "seek", "transfer"})
	l.Enter(1, 50)  // idle [0,50)
	l.Enter(2, 250) // seek [50,250) straddles buckets 0,1,2
	l.Enter(0, 260) // transfer [250,260)
	a.Finish(400)   // idle [260,400)

	want := map[string][]int64{
		"state/idle":     {50, 0, 40, 100},
		"state/seek":     {50, 100, 50},
		"state/transfer": {0, 0, 10},
	}
	for _, s := range a.sortedSeries() {
		w := want[s.name]
		if len(s.ints) != len(w) {
			t.Fatalf("%s: got %v want %v", s.name, s.ints, w)
		}
		for i := range w {
			if s.ints[i] != w[i] {
				t.Fatalf("%s bucket %d: got %d want %d", s.name, i, s.ints[i], w[i])
			}
		}
	}
	// Lane states tile virtual time exactly: sums equal the horizon.
	var tot int64
	for _, s := range a.series {
		for _, v := range s.ints {
			tot += v
		}
	}
	if tot != 400 {
		t.Fatalf("occupancy sums to %d, want 400", tot)
	}
}

func TestMeterTimeWeightedMean(t *testing.T) {
	a := New(100 * time.Nanosecond)
	m := a.Meter("sched", "log0", "queue_depth")
	m.Set(4, 0)
	m.Set(2, 50)  // bucket 0: 4 for 50ns, 2 for 50ns => mean 3
	m.Add(2, 100) // bucket 1: 4 for full bucket => mean 4
	a.Finish(200)

	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tl, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := tl.Lookup("sched", "log0", "queue_depth")
	if s == nil {
		t.Fatal("queue_depth series missing")
	}
	want := []Point{{0, 3}, {1, 4}}
	if len(s.Points) != len(want) {
		t.Fatalf("points %+v, want %+v", s.Points, want)
	}
	for i, p := range want {
		if s.Points[i] != p {
			t.Fatalf("point %d = %+v, want %+v", i, s.Points[i], p)
		}
	}
}

func TestMarkBuckets(t *testing.T) {
	a := New(100 * time.Nanosecond)
	k := a.Mark("trail", "driver", "shed_writes")
	k.Inc(0)
	k.Inc(99)
	k.Add(3, 100)
	k.Inc(250)
	a.Finish(300)

	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tl, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := tl.Lookup("trail", "driver", "shed_writes")
	want := []Point{{0, 2}, {1, 3}, {2, 1}}
	if s == nil || len(s.Points) != len(want) {
		t.Fatalf("points %+v, want %+v", s, want)
	}
	for i, p := range want {
		if s.Points[i] != p {
			t.Fatalf("point %d = %+v, want %+v", i, s.Points[i], p)
		}
	}
	if s.Kind != "count" {
		t.Fatalf("kind = %q", s.Kind)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	a := New(time.Millisecond)
	a.Mark("x", "y", "z")
	a.Meter("x", "y", "z")
}

func TestExportDeterministicAndSorted(t *testing.T) {
	build := func() *Aggregator {
		a := New(100 * time.Nanosecond)
		k := a.Mark("zeta", "t", "n")
		m := a.Meter("alpha", "t", "n")
		l := a.Lane("mid", "t", []string{"idle", "busy"})
		l.Enter(1, 30)
		l.Enter(0, 80)
		m.Set(2, 10)
		k.Inc(40)
		a.Finish(120)
		return a
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteCSV(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteCSV(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two identical builds exported different bytes")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("export too short:\n%s", b1.String())
	}
	// Registration order was zeta, alpha, mid; export must be sorted.
	var comps []string
	for _, ln := range lines[2:] {
		comps = append(comps, strings.SplitN(ln, ",", 2)[0])
	}
	for i := 1; i < len(comps); i++ {
		if comps[i] < comps[i-1] {
			t.Fatalf("components out of order: %v", comps)
		}
	}

	// WriteFile writes the CSV exposition whatever the file name.
	dir := t.TempDir()
	for _, name := range []string{"t.csv", "t.json", "t"} {
		path := filepath.Join(dir, name)
		if err := build().WriteFile(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, b1.Bytes()) {
			t.Errorf("%s: err %v, holds\n%s\nwant\n%s", name, err, got, b1.Bytes())
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	a := New(5 * time.Millisecond)
	l := a.Lane("disk", "log0", []string{"idle", "seek", "rotate_wait", "transfer"})
	l.Enter(1, 1_000_000)
	l.Enter(2, 3_000_000)
	l.Enter(3, 9_000_000)
	l.Enter(0, 14_000_000)
	m := a.Meter("trail", "driver", "staged_bytes")
	m.Set(8192, 2_000_000)
	m.Set(0, 12_000_000)
	k := a.Mark("sched", "data0", "shed")
	k.Add(7, 6_000_000)
	a.Finish(20_000_000)

	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	tl, err := Parse(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("Parse of own export failed: %v\n%s", err, raw)
	}
	if tl.BucketNS != 5_000_000 || tl.EndNS != 20_000_000 {
		t.Fatalf("header = %d/%d", tl.BucketNS, tl.EndNS)
	}
	if tl.Buckets() != 4 {
		t.Fatalf("Buckets() = %d", tl.Buckets())
	}
	// Occupancy round-trips exactly.
	s := tl.Lookup("disk", "log0", "state/rotate_wait")
	if s == nil {
		t.Fatal("rotate_wait series missing")
	}
	var occ float64
	for _, p := range s.Points {
		occ += p.Value
	}
	if occ != 6_000_000 {
		t.Fatalf("rotate_wait occupancy = %v, want 6ms", occ)
	}
	// Staged-bytes mean: 8192 held over [2ms,12ms) = 10ms of 20ms.
	s = tl.Lookup("trail", "driver", "staged_bytes")
	var w float64
	for _, p := range s.Points {
		w += p.Value * float64(tl.BucketNS)
	}
	if math.Abs(w-8192*10_000_000) > 1 {
		t.Fatalf("staged byte-ns = %v", w)
	}
}

func TestParseRejects(t *testing.T) {
	head := "# tracklog-timeline v1 bucket_ns=100 end_ns=400\n" + csvHeader + "\n"
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad version", "# nope\n"},
		{"zero bucket", "# tracklog-timeline v1 bucket_ns=0 end_ns=5\n" + csvHeader + "\n"},
		{"missing header", "# tracklog-timeline v1 bucket_ns=100 end_ns=400\nx\n"},
		{"short row", head + "a,b,c\n"},
		{"bad kind", head + "a,b,c,nope,0,1\n"},
		{"bad bucket", head + "a,b,c,count,x,1\n"},
		{"negative bucket", head + "a,b,c,count,-1,1\n"},
		{"zero value", head + "a,b,c,count,0,0\n"},
		{"bad value", head + "a,b,c,count,0,zzz\n"},
		{"empty identity", head + ",b,c,count,0,1\n"},
		{"blank line", head + "a,b,c,count,0,1\n\n"},
		{"dup bucket", head + "a,b,c,count,0,1\na,b,c,count,0,1\n"},
		{"bucket order", head + "a,b,c,count,2,1\na,b,c,count,1,1\n"},
		{"series order", head + "b,b,c,count,0,1\na,b,c,count,0,1\n"},
		{"kind flip", head + "a,b,c,count,0,1\na,b,c,mean,1,1\n"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: Parse accepted bad input", tc.name)
			continue
		}
		if !errors.Is(err, ErrBadTimeline) {
			t.Errorf("%s: error %v does not wrap ErrBadTimeline", tc.name, err)
		}
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	in := "# tracklog-timeline v1 bucket_ns=100 end_ns=400\n" + csvHeader + "\na,b,c,count,0,1\na,b,c,count,0,2\n"
	_, err := Parse(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line 4 in error, got %v", err)
	}
}

func FuzzTimelineRoundTrip(f *testing.F) {
	a := New(100 * time.Nanosecond)
	l := a.Lane("disk", "log0", []string{"idle", "seek"})
	l.Enter(1, 30)
	m := a.Meter("sched", "q", "depth")
	m.Set(2.5, 10)
	k := a.Mark("trail", "d", "shed")
	k.Inc(45)
	a.Finish(250)
	var seed bytes.Buffer
	if err := a.WriteCSV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("")
	f.Add("# tracklog-timeline v1 bucket_ns=1 end_ns=0\n" + csvHeader + "\n")
	f.Add("# tracklog-timeline v1 bucket_ns=5 end_ns=9\n" + csvHeader + "\nx,y,z,mean,0,1.5\n")

	f.Fuzz(func(t *testing.T, in string) {
		// Contract: never panic, all errors wrap the sentinel, and any
		// accepted input is internally consistent.
		tl, err := Parse(strings.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadTimeline) {
				t.Fatalf("non-sentinel error: %v", err)
			}
			return
		}
		if tl.BucketNS <= 0 {
			t.Fatalf("accepted bucket_ns=%d", tl.BucketNS)
		}
		for _, s := range tl.Series {
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].Bucket <= s.Points[i-1].Bucket {
					t.Fatalf("accepted non-monotonic buckets in %s", s.Key())
				}
			}
		}
	})
}
