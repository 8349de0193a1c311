package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// A nil tracer must be a complete no-op: every method callable, every
// accessor returning zero values. This is the disabled path every hot call
// site relies on.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{At: 1, Kind: KSeek, Track: "d"})
	tr.RegisterProbe("d", func(at int64, cyl, head, target int) (int64, int, int) { return 0, 0, 0 })
	tr.RecordPrediction("d", 0, 0, 0, 0)
	tr.Release()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer has state: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if tracks := tr.Tracks(); tracks != nil {
		t.Fatalf("nil tracer returned tracks: %v", tracks)
	}
	rep := tr.Audit()
	if rep.Predictions != 0 || rep.MissRate() != 0 {
		t.Fatalf("nil tracer audit non-empty: %+v", rep)
	}
	if evs, err := ReadChrome(bytes.NewReader(exportChrome(t, tr))); err != nil || len(evs) != 0 {
		t.Fatalf("nil tracer export: %d events, %v; want an empty valid trace", len(evs), err)
	}
}

// exportChrome renders tr's events the way a run's trace.json is written.
func exportChrome(t *testing.T, tr *Tracer) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	tr.EmitChrome(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The ring must keep the newest events, evict the oldest, and report the
// eviction count.
func TestRingOverflowKeepsNewest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: int64(i), Kind: KSeek, Track: "d"})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := int64(6 + i); ev.At != want {
			t.Fatalf("event %d At = %d, want %d (oldest-first order broken)", i, ev.At, want)
		}
	}
}

func TestTracksFirstAppearanceOrder(t *testing.T) {
	tr := New(16)
	for _, track := range []string{"b", "a", "b", "c", "a"} {
		tr.Emit(Event{Kind: KSeek, Track: track})
	}
	got := tr.Tracks()
	want := []string{"b", "a", "c"}
	if len(got) != len(want) {
		t.Fatalf("Tracks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tracks = %v, want %v", got, want)
		}
	}
}

// The audit must score hits vs misses by the half-track rule and track the
// rotational wait of both populations.
func TestAuditScoring(t *testing.T) {
	tr := New(64)
	spt := 60
	// A probe whose answer we control per call.
	var wait int64
	var slack int
	tr.RegisterProbe("log0", func(at int64, cyl, head, target int) (int64, int, int) {
		return wait, slack, spt
	})

	// 3 hits (slack 1, well under spt/2=30), 1 miss (slack 55).
	wait, slack = int64(100*time.Microsecond), 1
	for i := 0; i < 3; i++ {
		tr.RecordPrediction("log0", int64(i), 0, 0, 10)
	}
	wait, slack = int64(12*time.Millisecond), 55
	tr.RecordPrediction("log0", 3, 0, 0, 10)
	// One prediction on an unprobed device.
	tr.RecordPrediction("nosuch", 4, 0, 0, 10)

	rep := tr.Audit()
	if rep.Predictions != 4 {
		t.Fatalf("Predictions = %d, want 4", rep.Predictions)
	}
	if rep.Mispredictions != 1 {
		t.Fatalf("Mispredictions = %d, want 1", rep.Mispredictions)
	}
	if rep.Unaudited != 1 {
		t.Fatalf("Unaudited = %d, want 1", rep.Unaudited)
	}
	if got, want := rep.MissRate(), 0.25; got != want {
		t.Fatalf("MissRate = %v, want %v", got, want)
	}
	if rep.RotWait.Count() != 4 || rep.MissCost.Count() != 1 {
		t.Fatalf("rotWait n=%d missCost n=%d, want 4 and 1", rep.RotWait.Count(), rep.MissCost.Count())
	}
	if rep.SlackHist[1] != 3 || rep.SlackHist[55] != 1 {
		t.Fatalf("SlackHist = %v", rep.SlackHist)
	}
	// KPredict events were emitted for the audited predictions only.
	var predicts int
	for _, ev := range tr.Events() {
		if ev.Kind == KPredict {
			predicts++
			if ev.Count != spt {
				t.Fatalf("KPredict Count = %d, want spt %d", ev.Count, spt)
			}
		}
	}
	if predicts != 4 {
		t.Fatalf("KPredict events = %d, want 4", predicts)
	}
	// The report must be a snapshot: mutating it must not corrupt the state.
	rep.SlackHist[1] = 999
	if tr.Audit().SlackHist[1] != 3 {
		t.Fatal("AuditReport aliases tracer state")
	}
	// Release drops the probe and keeps what was gathered: a later
	// prediction on the device goes unaudited.
	events := tr.Len()
	tr.Release()
	tr.RecordPrediction("log0", 5, 0, 0, 10)
	if rep := tr.Audit(); rep.Predictions != 4 || rep.Unaudited != 2 || tr.Len() != events {
		t.Fatalf("after Release: %d predictions, %d unaudited, %d events; want 4, 2, %d",
			rep.Predictions, rep.Unaudited, tr.Len(), events)
	}
}

func TestAuditSlackHistClamp(t *testing.T) {
	tr := New(8)
	tr.RegisterProbe("d", func(at int64, cyl, head, target int) (int64, int, int) {
		return 0, 500, 600
	})
	tr.RecordPrediction("d", 0, 0, 0, 0)
	if got := tr.Audit().SlackHist[slackHistMax]; got != 1 {
		t.Fatalf("clamped slack bucket = %d, want 1", got)
	}
}

// Two exports of the same tracer must be byte-identical, and ReadChrome must
// read back each event with its track and exact virtual times.
func TestWriteChromeDeterministicAndValid(t *testing.T) {
	tr := New(64)
	tr.Emit(Event{At: 1_234_567, Dur: 500_000, Kind: KSeek, Track: "log0", LBA: 42, Count: 3})
	tr.Emit(Event{At: 2_000_000, Kind: KEnqueue, Track: "data0", A: 2, B: 1})
	tr.Emit(Event{At: 2_500_001, Dur: 1, Kind: KTransfer, Track: "log0"})

	a, b := exportChrome(t, tr), exportChrome(t, tr)
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same tracer differ")
	}
	got, err := ReadChrome(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("export rejected: %v\n%s", err, a)
	}
	want := []ChromeEvent{
		{Name: "seek", Cat: "sim", Ph: "X", At: 1_234_567, Dur: 500_000, Track: "log0",
			Args: `{"lba":42,"count":3,"a":0,"b":0}`},
		{Name: "enqueue", Cat: "sim", Ph: "i", At: 2_000_000, Track: "data0",
			Args: `{"lba":0,"count":0,"a":2,"b":1}`},
		{Name: "transfer", Cat: "sim", Ph: "X", At: 2_500_001, Dur: 1, Track: "log0",
			Args: `{"lba":0,"count":0,"a":0,"b":0}`},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("read back %+v\nwant %+v", got, want)
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1_234_567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := Usec(c.ns); got != c.want {
			t.Errorf("Usec(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := KSeek; k <= KBlock; k++ {
		if k.String() == "unknown" {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range Kind should be unknown")
	}
}

func TestAuditReportString(t *testing.T) {
	tr := New(8)
	tr.RegisterProbe("d", func(at int64, cyl, head, target int) (int64, int, int) {
		return int64(time.Millisecond), 40, 60
	})
	tr.RecordPrediction("d", 0, 0, 0, 0)
	out := tr.Audit().String()
	for _, frag := range []string{"1 predictions", "1 mispredicted", "miss cost", "slack sectors"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
