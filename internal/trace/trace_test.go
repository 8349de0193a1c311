package trace

import (
	"bytes"
	"encoding/json"
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
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil WriteChrome output not JSON: %v", err)
	}
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

// Two exports of the same tracer must be byte-identical, and the output must
// be valid JSON in the Chrome trace-event object shape.
func TestWriteChromeDeterministicAndValid(t *testing.T) {
	tr := New(64)
	tr.Emit(Event{At: 1_234_567, Dur: 500_000, Kind: KSeek, Track: "log0", LBA: 42, Count: 3})
	tr.Emit(Event{At: 2_000_000, Kind: KEnqueue, Track: "data0", A: 2, B: 1})
	tr.Emit(Event{At: 2_500_001, Dur: 1, Kind: KTransfer, Track: "log0"})

	var a, b bytes.Buffer
	if err := tr.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same tracer differ")
	}

	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &tf); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a.String())
	}
	// 1 process_name + 2 thread_name metadata + 3 events.
	if len(tf.TraceEvents) != 6 {
		t.Fatalf("exported %d events, want 6", len(tf.TraceEvents))
	}
	// The seek span: ts in microseconds with sub-µs decimals preserved.
	var found bool
	for _, ev := range tf.TraceEvents {
		if ev.Name == "seek" {
			found = true
			if ev.Ph != "X" {
				t.Fatalf("seek ph = %q, want X", ev.Ph)
			}
			if ev.Ts != 1234.567 {
				t.Fatalf("seek ts = %v, want 1234.567", ev.Ts)
			}
			if ev.Dur != 500 {
				t.Fatalf("seek dur = %v, want 500", ev.Dur)
			}
		}
		if ev.Name == "enqueue" && ev.Ph != "i" {
			t.Fatalf("zero-duration event ph = %q, want i", ev.Ph)
		}
	}
	if !found {
		t.Fatal("seek event missing from export")
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

func TestSamplerCSVAndJSON(t *testing.T) {
	s := NewSampler("depth", "cyl")
	s.Record(0, 1, 100)
	s.Record(5_000_000, 2.5, 200)
	s.Record(10_000_000, 0) // short row: zero-filled

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "time_ms,depth,cyl\n0.000,1,100\n5.000,2.5,200\n10.000,0,0\n"
	if csv.String() != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", csv.String(), want)
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(js.Bytes(), &parsed); err != nil {
		t.Fatalf("sampler JSON invalid: %v\n%s", err, js.String())
	}
	if len(parsed.Columns) != 3 || parsed.Columns[0] != "time_ms" {
		t.Fatalf("columns = %v", parsed.Columns)
	}
	if len(parsed.Rows) != 3 || parsed.Rows[1][1] != 2.5 {
		t.Fatalf("rows = %v", parsed.Rows)
	}

	// Determinism: a second export is byte-identical.
	var js2 bytes.Buffer
	if err := s.WriteJSON(&js2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js.Bytes(), js2.Bytes()) {
		t.Fatal("two sampler JSON exports differ")
	}
}

func TestNilSamplerSafe(t *testing.T) {
	var s *Sampler
	s.Record(0, 1)
	if s.Rows() != 0 {
		t.Fatal("nil sampler recorded a row")
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
