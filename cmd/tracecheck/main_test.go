package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracklog/internal/rig"
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
	if _, err := workload.RunSyncWrites(r.Env, r.Dev(0), workload.SyncWriteConfig{
		WriteSize: 1024, Processes: 2, WritesPerProcess: 10, Seed: 7,
	}); err != nil {
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

// checkBytes writes b to a temporary file and checks it.
func checkBytes(t *testing.T, b []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return check(path)
}

func TestAcceptsMergedExport(t *testing.T) {
	data := mergedExport(t)
	if err := checkBytes(t, data); err != nil {
		t.Fatalf("merged Tracer+Recorder export rejected: %v", err)
	}
	// Every phase the two exporters emit is present, so the check saw them.
	for _, ph := range []string{`"ph":"X"`, `"ph":"i"`, `"ph":"b"`, `"ph":"e"`, `"ph":"s"`, `"ph":"f"`, `"ph":"M"`} {
		if !bytes.Contains(data, []byte(ph)) {
			t.Errorf("export has no %s event", ph)
		}
	}
}

// TestRejectsDamagedExport cuts the export short and garbles one field at a
// time; each copy must come back as an error, never a panic or an ok.
func TestRejectsDamagedExport(t *testing.T) {
	data := mergedExport(t)
	cases := map[string][]byte{
		"truncated": data[:len(data)/2],
		"empty":     nil,
	}
	for name, garble := range map[string][2]string{
		"unknown phase":   {`"ph":"X"`, `"ph":"Q"`},
		"negative ts":     {`"ts":0.000`, `"ts":-1.000`},
		"negative dur":    {`"dur":`, `"dur":-`},
		"string ts":       {`"ts":`, `"ts":"`},
		"missing name":    {`{"name":`, `{"nome":`},
		"missing pid":     {`"pid":1`, `"pod":1`},
		"async id":        {`"ph":"b","id":`, `"ph":"b","di":`},
		"unpaired async":  {`"ph":"e"`, `"ph":"i"`},
		"display unit":    {`"displayTimeUnit":"ms"`, `"displayTimeUnit":"s"`},
		"events not list": {`"traceEvents":[`, `"traceEvents":{`},
	} {
		if !bytes.Contains(data, []byte(garble[0])) {
			t.Fatalf("%s: export has no %s to garble", name, garble[0])
		}
		cases[name] = bytes.Replace(data, []byte(garble[0]), []byte(garble[1]), 1)
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			if checkBytes(t, b) == nil {
				t.Error("damaged export accepted")
			}
		})
	}
}
