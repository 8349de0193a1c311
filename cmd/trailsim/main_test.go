package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"testing"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// runIn runs trailsim with args inside a fresh directory, so relative export
// paths (and stdout's echo of them) match a run from any checkout, and
// returns stdout, stderr and the directory's files.
func runIn(t *testing.T, args ...string) (stdout, stderr []byte, files map[string][]byte) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("trailsim %v: exit %d: %s", args, code, &errOut)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	files = map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return out.Bytes(), errOut.Bytes(), files
}

// TestTraceSmokeGolden pins every artefact of the traced `-writes 50 -seed 7`
// run — Chrome trace, registry, timeline, span trees and stdout — to its
// length and digest, for the Trail system and the baseline, recorded at
// a713434. A change that moves any byte here on purpose updates the pin and
// says so.
func TestTraceSmokeGolden(t *testing.T) {
	for _, tc := range []struct {
		system string
		want   map[string]string
	}{
		{"trail", map[string]string{
			"trace.json":   "240532 bytes 66fb305ece6a6ae5",
			"metrics.prom": "10783 bytes 97bc52adf2102e70",
			"timeline.csv": "71201 bytes 7609ac0cc505d305",
			"spans.json":   "56802 bytes 23c55f7ca873ce28",
			"stdout":       "3356 bytes 7f3563cc80f7613a",
		}},
		{"std", map[string]string{
			"trace.json":   "128346 bytes b96de04d7a287c2c",
			"metrics.prom": "6095 bytes 28b88897594c3a0a",
			"timeline.csv": "36595 bytes 10356d28533041d7",
			"spans.json":   "28191 bytes e3b88dca2268ca46",
			"stdout":       "1325 bytes 527e03f375f54d46",
		}},
	} {
		t.Run(tc.system, func(t *testing.T) {
			out, _, files := runIn(t, "-system", tc.system, "-writes", "50", "-seed", "7",
				"-trace", "trace.json", "-metrics", "metrics.prom",
				"-timeline", "5ms", "-timeline-out", "timeline.csv",
				"-spans", "-span-out", "spans.json", "-explain-tail", "0.05")
			files["stdout"] = out
			if len(files) != len(tc.want) {
				t.Errorf("wrote %d files, want %d", len(files)-1, len(tc.want)-1)
			}
			for name, want := range tc.want {
				if got := digest(files[name]); got != want {
					t.Errorf("%s: %s, want %s", name, got, want)
				}
			}
		})
	}
}

// TestVerifySnapshotDigests pins the world checkpoint -verify-snapshot
// fingerprints after `-writes 50 -seed 7`: its length and FNV digest, for a
// Trail run, a baseline run and a Trail run under faults, recorded at
// 8a571dc. The status line goes to stderr, so stdout must match the same run
// without the flag byte for byte. A deliberate format change updates these
// and TestSnapshotGoldenDigests together.
func TestVerifySnapshotDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"trail", []string{"-system", "trail"}, "419298-byte world checkpoint, digest 6b9ebce6d394851f"},
		{"std", []string{"-system", "std"}, "52760-byte world checkpoint, digest 0f8e4f37fc39a2e0"},
		{"faults", []string{"-faults", "latent=3,timeout=1"}, "419812-byte world checkpoint, digest 03bcbe5d5f49cfb1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-writes", "50", "-seed", "7"}, tc.args...)
			plain, _, _ := runIn(t, args...)
			verified, stderr, _ := runIn(t, append(args, "-verify-snapshot")...)
			if got, want := string(stderr), "verify-snapshot: "+tc.want+"\n"; got != want {
				t.Errorf("trailsim %v: stderr %q, want %q", args, got, want)
			}
			if !bytes.Equal(plain, verified) {
				t.Errorf("trailsim %v: -verify-snapshot changed stdout:\n%s\nwithout the flag:\n%s", args, verified, plain)
			}
		})
	}
}
