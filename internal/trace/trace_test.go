package trace

import (
	"bytes"
	"errors"
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
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("nil tracer has state: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if tracks := tr.Tracks(); tracks != nil {
		t.Fatalf("nil tracer returned tracks: %v", tracks)
	}
	if evs, err := ReadChrome(bytes.NewReader(exportChrome(t, tr))); err != nil || len(evs) != 0 {
		t.Fatalf("nil tracer export: %d events, %v; want an empty valid trace", len(evs), err)
	}
	if rep, err := AuditEvents(nil); err != nil || rep.Predictions != 0 || rep.MissRate() != 0 {
		t.Fatalf("audit of no events: %+v, %v; want an empty report", rep, err)
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

// auditOf exports events the way a run's trace.json is written, reads the
// file back and audits it.
func auditOf(t *testing.T, events ...Event) *AuditReport {
	t.Helper()
	tr := New(64)
	for _, ev := range events {
		tr.Emit(ev)
	}
	read, err := ReadChrome(bytes.NewReader(exportChrome(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AuditEvents(read)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// predict is a predict event as the Trail driver emits it.
func predict(at int64, slack, spt int, wait time.Duration) Event {
	return Event{At: at, Kind: KPredict, Track: "log0", LBA: 10, Count: spt, A: int64(slack), B: int64(wait)}
}

// The audit must score hits vs misses by the half-track rule and track the
// rotational wait of both populations, from the predict events alone.
func TestAuditScoring(t *testing.T) {
	spt := 60
	// 3 hits (slack 1, well under spt/2=30), 1 miss (slack 55), and events
	// of other kinds, which the audit skips.
	var events []Event
	for i := 0; i < 3; i++ {
		events = append(events, Event{At: int64(i), Kind: KRotWait, Track: "log0", Dur: 1},
			predict(int64(i), 1, spt, 100*time.Microsecond))
	}
	events = append(events, predict(3, 55, spt, 12*time.Millisecond))

	rep := auditOf(t, events...)
	if rep.Predictions != 4 {
		t.Fatalf("Predictions = %d, want 4", rep.Predictions)
	}
	if rep.Mispredictions != 1 {
		t.Fatalf("Mispredictions = %d, want 1", rep.Mispredictions)
	}
	if got, want := rep.MissRate(), 0.25; got != want {
		t.Fatalf("MissRate = %v, want %v", got, want)
	}
	if rep.RotWait.Count() != 4 || rep.MissCost.Count() != 1 || rep.MissCost.Max() != 12*time.Millisecond {
		t.Fatalf("rotWait n=%d missCost n=%d max %v, want 4, 1 and 12ms",
			rep.RotWait.Count(), rep.MissCost.Count(), rep.MissCost.Max())
	}
	if rep.SlackHist[1] != 3 || rep.SlackHist[55] != 1 {
		t.Fatalf("SlackHist = %v", rep.SlackHist)
	}
}

// A predict event whose args do not carry the score is a malformed trace.
func TestAuditRejectsBadPredictArgs(t *testing.T) {
	for _, args := range []string{``, `{"lba":1}`, `{"lba":1,"count":60,"a":1,"b":"x"}`} {
		_, err := AuditEvents([]ChromeEvent{{Name: "predict", Cat: "sim", Ph: "i", Track: "log0", Args: args}})
		if !errors.Is(err, ErrBadChrome) {
			t.Errorf("args %q: err %v, want ErrBadChrome", args, err)
		}
	}
}

func TestAuditSlackHistClamp(t *testing.T) {
	if got := auditOf(t, predict(0, 500, 600, 0)).SlackHist[slackHistMax]; got != 1 {
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
	out := auditOf(t, predict(0, 40, 60, time.Millisecond)).String()
	for _, frag := range []string{"1 predictions", "1 mispredicted", "miss cost", "slack sectors"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
