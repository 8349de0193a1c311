package rig

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/span"
	"tracklog/internal/workload"
)

// ReadDir reads back every artefact WriteDir writes, each through its own
// package's reader, and refuses a directory with none or a damaged one.
func TestReadDirReadsWhatWriteDirWrites(t *testing.T) {
	in := NewInstruments(time.Millisecond)
	r, err := New(Config{Instruments: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunSyncWrites(r.Env, r.Dev(0), workload.SyncWriteConfig{
		WriteSize: 1024, Processes: 2, WritesPerProcess: 10, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	dir := t.TempDir()
	entries := []benchfmt.Entry{{Name: "sync-write/trail", Count: 20}}
	if err := in.WriteDir(dir, r.Env.Now(), entries, io.Discard); err != nil {
		t.Fatal(err)
	}
	run, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case len(run.Trace) < in.Tracer.Len():
		t.Errorf("trace: %d events, the tracer alone holds %d", len(run.Trace), in.Tracer.Len())
	case len(run.Spans) != in.Recorder.Len() || run.Spans[0].Kind != span.KWrite:
		t.Errorf("spans: %d requests, recorded %d", len(run.Spans), in.Recorder.Len())
	case run.Timeline == nil || run.Timeline.BucketNS != int64(time.Millisecond):
		t.Errorf("timeline %+v", run.Timeline)
	case run.Bench == nil || run.Bench.Entry("sync-write/trail") == nil:
		t.Errorf("bench %+v", run.Bench)
	case len(run.Metrics) == 0:
		t.Error("no metrics")
	}

	if _, err := ReadDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no run artifacts") {
		t.Errorf("empty directory: %v", err)
	}
	spans := filepath.Join(dir, "spans.json")
	if err := os.WriteFile(spans, []byte(`{"version":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDir(dir); !errors.Is(err, span.ErrBadDump) || !strings.Contains(err.Error(), spans) {
		t.Errorf("damaged span dump: %v", err)
	}
}
