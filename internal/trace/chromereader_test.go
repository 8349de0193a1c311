package trace_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/trace"
	"tracklog/internal/workload"
)

// mergedExport runs a short Trail workload with every instrument attached
// and returns the trace.json that trailsim -out writes: kernel and disk
// events from the Tracer, async request spans and flow arrows from the
// Recorder, in one traceEvents array.
func mergedExport(t *testing.T) []byte {
	t.Helper()
	in := rig.NewInstruments(time.Millisecond)
	r, err := rig.New(rig.Config{Instruments: in})
	if err != nil {
		t.Fatal(err)
	}
	load, err := workload.SyncWrites(workload.SyncWriteConfig{
		WriteSize: 1024, Processes: 2, WritesPerProcess: 10, Seed: 7,
	}, r.Dev(0).Sectors())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(r.Env, r.Dev(0), load); err != nil {
		t.Fatal(err)
	}
	r.Close()
	dir := t.TempDir()
	if err := in.WriteDir(dir, r.Env.Now(), nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadChromeAcceptsMergedExport(t *testing.T) {
	data := mergedExport(t)
	events, err := trace.ReadChrome(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("merged Tracer+Recorder export rejected: %v", err)
	}
	// Every phase the two exporters emit is present, so the reader saw them.
	phases := map[string]bool{}
	for _, ev := range events {
		phases[ev.Ph] = true
		if ev.Track == "" {
			t.Fatalf("event %+v has no track", ev)
		}
	}
	for _, ph := range []string{"X", "i", "b", "e", "s", "f"} {
		if !phases[ph] {
			t.Errorf("export has no %q event", ph)
		}
	}
	if !bytes.Contains(data, []byte(`"ph":"M"`)) {
		t.Error("export has no metadata event")
	}
}

// TestReadChromeRejectsDamagedExport cuts the export short and garbles one
// field at a time; each copy must come back as an error wrapping
// ErrBadChrome, never a panic or a trace.
func TestReadChromeRejectsDamagedExport(t *testing.T) {
	data := mergedExport(t)
	for _, tc := range []struct {
		name     string
		from, to string // the first from becomes to; "" cuts instead
	}{
		{name: "truncated"},
		{name: "empty"},
		{"unknown phase", `"ph":"X"`, `"ph":"Q"`},
		{"negative ts", `"ts":0.000`, `"ts":-1.000`},
		{"negative dur", `"dur":`, `"dur":-`},
		{"string ts", `"ts":`, `"ts":"`},
		{"missing name", `{"name":`, `{"nome":`},
		{"missing pid", `"pid":1`, `"pod":1`},
		{"async id", `"ph":"b","id":`, `"ph":"b","di":`},
		{"unpaired async", `"ph":"e"`, `"ph":"i"`},
		{"display unit", `"displayTimeUnit":"ms"`, `"displayTimeUnit":"s"`},
		{"events not list", `"traceEvents":[`, `"traceEvents":{`},
		{"unnamed track", `"name":"thread_name"`, `"name":"thread_nome"`},
		{"ts not usec", `"ts":0.000`, `"ts":0.0`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b []byte
			switch {
			case tc.name == "truncated":
				b = data[:len(data)/2]
			case tc.from != "":
				if !bytes.Contains(data, []byte(tc.from)) {
					t.Fatalf("export has no %s to garble", tc.from)
				}
				b = bytes.Replace(data, []byte(tc.from), []byte(tc.to), 1)
			}
			events, err := trace.ReadChrome(bytes.NewReader(b))
			if !errors.Is(err, trace.ErrBadChrome) {
				t.Errorf("damaged export: %d events, error %v; want ErrBadChrome", len(events), err)
			}
		})
	}
}
