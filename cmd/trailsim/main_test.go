package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
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

// TestBadSizeExitsWithError: a write size that is not a positive sector
// multiple is refused with exit status 1 and an error on stderr, on every
// path that takes -size. Each of these once panicked (a negative make, a
// negative Int64n bound, a division by a zero sector count) or, for 1000
// bytes under -pattern, silently wrote one sector.
func TestBadSizeExitsWithError(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "-512"},
		{"-offered-load", "1000", "-size", "-512"},
		{"-pattern", "uniform", "-size", "0"},
		{"-pattern", "zipf", "-size", "0"},
		{"-pattern", "sequential", "-size", "-512"},
		{"-pattern", "uniform", "-size", "1000"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trailsim %v panicked: %v", args, r)
				}
			}()
			var out, errOut bytes.Buffer
			code := run(append([]string{"-writes", "5"}, args...), &out, &errOut)
			if code != 1 || !strings.Contains(errOut.String(), "trailsim: ") {
				t.Errorf("trailsim %v: exit %d, stderr %q; want exit 1 and an error", args, code, &errOut)
			}
		})
	}
}

// The header reports the configuration that ran, defaults filled in, not the
// flag values.
func TestHeaderShowsDefaultedConfig(t *testing.T) {
	out, _, _ := runIn(t, "-procs", "0", "-writes", "0", "-size", "0")
	if want := "trail / sparse / 1024B x 100 writes x 1 procs\n"; !strings.HasPrefix(string(out), want) {
		t.Errorf("header %q, want %q", strings.SplitAfter(string(out), "\n")[0], want)
	}
}
