package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tracklog/internal/sim"
)

func TestPatternsStayInBounds(t *testing.T) {
	rng := sim.NewRand(1)
	patterns := []Pattern{UniformPattern{}, &SequentialPattern{}, NewZipf()}
	const devSectors, sectors = 100000, 8
	for _, pat := range patterns {
		for i := 0; i < 5000; i++ {
			lba := pat.Next(rng, devSectors, sectors)
			if lba < 0 || lba+sectors > devSectors {
				t.Fatalf("%v: target %d out of bounds", pat, lba)
			}
			if lba%sectors != 0 {
				t.Fatalf("%v: target %d unaligned", pat, lba)
			}
		}
	}
}

func TestSequentialWraps(t *testing.T) {
	p := &SequentialPattern{}
	rng := sim.NewRand(1)
	seen := map[int64]bool{}
	for i := 0; i < 20; i++ {
		seen[p.Next(rng, 64, 8)] = true
	}
	if len(seen) != 8 {
		t.Errorf("sequential over 8 slots visited %d distinct targets", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf()
	rng := sim.NewRand(7)
	counts := map[int64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[z.Next(rng, 10000*8, 8)]++
	}
	// The hottest slot should absorb far more than the uniform share.
	if counts[0] < n/200 {
		t.Errorf("slot 0 got %d of %d; zipf skew missing", counts[0], n)
	}
	if counts[0] <= counts[8*5000] {
		t.Error("hot slot not hotter than the middle")
	}
}

func TestTraceSerializeRoundTrip(t *testing.T) {
	tr := SynthesizeTrace(50, NewZipf(), 8, 100000, 3)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("ops %d != %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		a, b := tr.Ops[i], back.Ops[i]
		// Serialization rounds to microseconds.
		if a.At.Truncate(time.Microsecond) != b.At || a.Write != b.Write || a.LBA != b.LBA || a.Sectors != b.Sectors {
			t.Fatalf("op %d: %+v != %+v", i, a, b)
		}
	}
}

func TestParseTraceRejectsGarbage(t *testing.T) {
	cases := []struct {
		name  string
		trace string
		// wantErr is a substring the error must contain; the line number of
		// the offending line must appear too.
		wantErr string
		line    string
	}{
		{"free text", "not a trace", "fields", "line 1"},
		{"bad op", "100 X 5 1", `bad op "X"`, "line 1"},
		{"lowercase op", "100 w 5 1", `bad op "w"`, "line 1"},
		{"negative time", "-5 W 5 1", "negative issue time", "line 1"},
		{"negative lba", "100 W -1 1", "negative LBA", "line 1"},
		{"zero sectors", "100 W 5 0", "sector count 0", "line 1"},
		{"negative sectors", "100 W 5 -3", "sector count -3", "line 1"},
		{"missing field", "100 W 5", "3 fields", "line 1"},
		{"trailing garbage", "100 W 5 1 extra", "5 fields", "line 1"},
		{"non-numeric time", "soon W 5 1", "bad issue time", "line 1"},
		{"non-numeric lba", "100 W five 1", "bad LBA", "line 1"},
		{"non-numeric sectors", "100 W 5 one", "bad sector count", "line 1"},
		{"time goes backwards", "100 W 5 1\n90 R 5 1", "before previous op", "line 2"},
		{"error after comments", "# header\n\n100 W 5 1\n100 W 5 1 junk", "5 fields", "line 4"},
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.trace))
		if err == nil {
			t.Errorf("%s: accepted %q", c.name, c.trace)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: error %q, want it to mention %q and %q", c.name, err, c.wantErr, c.line)
		}
	}
	// Comments, blanks, repeated timestamps, and extra spacing are fine.
	ok := "# comment\n\n100 W 5 1\n100 R  7   2\n"
	tr, err := ParseTrace(strings.NewReader(ok))
	if err != nil || len(tr.Ops) != 2 {
		t.Errorf("valid trace rejected: %v", err)
	}
}

// FuzzParseTrace checks that any parsed trace survives a serialize/reparse
// round trip unchanged, and that the parser never panics on arbitrary input.
func FuzzParseTrace(f *testing.F) {
	f.Add("100 W 5 1\n200 R 7 2\n")
	f.Add("# comment\n\n0 W 0 1\n")
	f.Add("100 W 5 1 extra\n")
	f.Add("-5 W 5 1\n")
	f.Add("100 W 5\n90 R 5 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("serializing parsed trace: %v", err)
		}
		back, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("reparsing serialized trace: %v\n%s", err, buf.Bytes())
		}
		if len(back.Ops) != len(tr.Ops) {
			t.Fatalf("round trip: %d ops != %d", len(back.Ops), len(tr.Ops))
		}
		for i := range tr.Ops {
			if tr.Ops[i] != back.Ops[i] {
				t.Fatalf("round trip op %d: %+v != %+v", i, tr.Ops[i], back.Ops[i])
			}
		}
	})
}

func TestReplayAgainstBaseline(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev := baseline(env)
	tr := SynthesizeTrace(30, UniformPattern{}, 4, dev.Sectors(), 11)
	res, err := Run(env, dev, tr.Load())
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads.Count()+res.Writes.Count() != 30 {
		t.Errorf("replayed %d+%d of 30", res.Reads.Count(), res.Writes.Count())
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time")
	}
}

func TestReplayOpenLoopTiming(t *testing.T) {
	// With huge gaps, each op is issued on schedule (no lag); elapsed
	// tracks the trace length, not the device speed.
	env := sim.NewEnv()
	defer env.Close()
	dev := baseline(env)
	// Fixed 200 ms spacing (SynthesizeTrace's exponential gaps can dip
	// below the device service time and legitimately lag).
	tr := &Trace{}
	for i := 0; i < 5; i++ {
		tr.Ops = append(tr.Ops, TraceOp{
			At: time.Duration(i) * 200 * time.Millisecond, Write: true, LBA: int64(i * 100), Sectors: 1,
		})
	}
	res, err := Run(env, dev, tr.Load())
	if err != nil {
		t.Fatal(err)
	}
	if res.Lagged != 0 {
		t.Errorf("lagged = %d with 200ms gaps", res.Lagged)
	}
	if res.Elapsed < tr.Ops[len(tr.Ops)-1].At {
		t.Error("elapsed shorter than the trace span")
	}
}
