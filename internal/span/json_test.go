package span_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tracklog/internal/rig"
	"tracklog/internal/span"
	"tracklog/internal/workload"
)

// A real run's dump read back and written again is the same file, byte for
// byte: ReadJSON keeps every field WriteJSON writes.
func TestJSONRoundTrip(t *testing.T) {
	rec := span.NewRecorder(0)
	r, err := rig.New(rig.Config{Instruments: rig.Instruments{Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.RunSyncWrites(r.Env, r.Dev(0), workload.SyncWriteConfig{
		WriteSize: 4096, Processes: 3, WritesPerProcess: 20, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	var first, second bytes.Buffer
	if err := rec.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	reqs, dropped, err := span.ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	for _, req := range reqs {
		flows += len(req.Flows)
	}
	if len(reqs) != rec.Len() || dropped != rec.Dropped() || flows == 0 {
		t.Fatalf("read %d requests (%d flows), %d dropped; recorded %d, %d dropped", len(reqs), flows, dropped, rec.Len(), rec.Dropped())
	}
	if err := span.RecorderOf(reqs, dropped).WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("rewritten dump differs: %d bytes, first %d", second.Len(), first.Len())
	}
}

// Every malformed dump fails with ErrBadDump.
func TestReadJSONRejects(t *testing.T) {
	const req = `{"id":1,"kind":"write","driver":"trail","dev":"data0","lba":0,"count":8,"start_ns":0,"end_ns":100,"err":0,"spans":[{"phase":"seek","start_ns":0,"end_ns":40,"a":0,"b":0}]}`
	for name, doc := range map[string]string{
		"truncated":                     `{"version":1,"dropped":0,"requests":[` + req[:40],
		"version 2":                     `{"version":2,"dropped":0,"requests":[]}`,
		"no version":                    `{"dropped":0,"requests":[]}`,
		"request ends before its start": `{"version":1,"requests":[` + strings.Replace(req, `"end_ns":100`, `"end_ns":-1`, 1) + `]}`,
		"span ends before its start":    `{"version":1,"requests":[` + strings.Replace(req, `"end_ns":40`, `"end_ns":-1`, 1) + `]}`,
		"unknown kind":                  `{"version":1,"requests":[` + strings.Replace(req, `"write"`, `"erase"`, 1) + `]}`,
		"unknown phase":                 `{"version":1,"requests":[` + strings.Replace(req, `"seek"`, `"spin"`, 1) + `]}`,
		"trailing data":                 `{"version":1,"requests":[]}{}`,
		"not an object":                 `[]`,
	} {
		if _, _, err := span.ReadJSON(strings.NewReader(doc)); !errors.Is(err, span.ErrBadDump) {
			t.Errorf("%s: error %v, want ErrBadDump", name, err)
		}
	}
	if reqs, _, err := span.ReadJSON(strings.NewReader(`{"version":1,"dropped":0,"requests":[` + req + `]}`)); err != nil || len(reqs) != 1 {
		t.Errorf("a valid dump: %d requests, %v", len(reqs), err)
	}
}
