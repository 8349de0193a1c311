package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"

	"tracklog/internal/trace"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// runIn runs clustersim with args inside a fresh directory, so relative
// export paths (and stdout's echo of them) match a run from any checkout,
// and returns stdout with the directory's files.
func runIn(t *testing.T, args ...string) (stdout []byte, files map[string][]byte) {
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
		t.Fatalf("clustersim %v: exit %d: %s", args, code, &errOut)
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
	return out.Bytes(), files
}

// TestKillOneShardGolden pins every artefact of the kill-one-shard chaos run
// to its length and digest, recorded at 8342e4c (out.txt re-pinned, and the
// trace and span dump pinned, when -out began writing them: out.txt gained
// their two lines; re-pinned again when the tail explainer moved to `rundiff
// DIR`, which cmd/rundiff's TestRunDirBlocks holds to a failover or hedge in
// this run's tail; trace and span dump re-pinned when a refused or degraded
// write's copies and a hedge-won read's primary were charged subwrite and
// subread time, so spans tile every request; all but stdout's summary lines
// re-pinned when the rebuild stopped copying a slot while a write to it was
// out, which had left one acknowledged write unreadable on the rebuilt
// shard), and asserts the failure path was exercised and fully
// recovered: one death, one recovery, the killed shard back healthy on
// replacement hardware and no acknowledged write lost. A change that moves
// any byte here on purpose updates the pin and says so. The trace is also
// read back through trace.ReadChrome, so it stays loadable.
func TestKillOneShardGolden(t *testing.T) {
	out, files := runIn(t, "-chaos", "shardkill=1@250ms", "-seed", "11", "-verify", "-out", ".")
	files["out.txt"] = out
	for name, want := range map[string]string{
		"out.txt":      "540 bytes c35ba3e23710c304",
		"metrics.prom": "5922 bytes 371490aea9d042bf",
		"timeline.csv": "339536 bytes b4e32eb9ea509c88",
		"trace.json":   "2449022 bytes 4f4018c93ef94112",
		"spans.json":   "313463 bytes 4c93330b0bcd05c8",
	} {
		if got := digest(files[name]); got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
	if _, err := trace.ReadChrome(bytes.NewReader(files["trace.json"])); err != nil {
		t.Error(err)
	}
	text := string(out)
	for _, re := range []string{
		`verify: [0-9]+ acked slots read back, 0 lost`,
		`health: 1 deaths, 1 recoveries`,
		`1:healthy/g1`,
	} {
		if !regexp.MustCompile(re).MatchString(text) {
			t.Errorf("stdout does not match %q:\n%s", re, text)
		}
	}
}

// TestSlowShardGolden pins the slow-shard run's stdout, recorded at 8342e4c:
// a derated shard is hedged around and loses nothing.
func TestSlowShardGolden(t *testing.T) {
	out, _ := runIn(t, "-chaos", "slowshard=0@100ms:2000000", "-seed", "12", "-verify")
	if got, want := digest(out), "379 bytes 8bc1d51416adf090"; got != want {
		t.Errorf("stdout: %s, want %s", got, want)
	}
	if !strings.Contains(string(out), ", 0 lost\n") {
		t.Errorf("slow-shard run lost acknowledged writes:\n%s", out)
	}
}

// TestShardCountBelowTwoExitsWithError: a run with fewer than two shards is
// refused with exit status 1 and an error on stderr. -shards 0 once ran the
// default four-shard cluster under a "0 shards" header.
func TestShardCountBelowTwoExitsWithError(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-shards", "1"},
		{"-shards", "-2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run(args, &out, &errOut)
			if code != 1 || !strings.Contains(errOut.String(), "clustersim: ") {
				t.Errorf("clustersim %v: exit %d, stderr %q; want exit 1 and an error", args, code, &errOut)
			}
			if out.Len() != 0 {
				t.Errorf("clustersim %v printed a result:\n%s", args, &out)
			}
		})
	}
}
