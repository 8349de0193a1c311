package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"regexp"
	"strings"
	"testing"
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
// their two lines), and asserts the failure path
// was exercised and fully recovered: one death, one recovery, the killed
// shard back healthy on replacement hardware, no acknowledged write lost,
// and a failover or hedge among the explained tail. A change that moves any
// byte here on purpose updates the pin and says so.
func TestKillOneShardGolden(t *testing.T) {
	out, files := runIn(t, "-chaos", "shardkill=1@250ms", "-seed", "11", "-verify",
		"-out", ".", "-explain-tail", "0.05")
	files["out.txt"] = out
	for name, want := range map[string]string{
		"out.txt":      "2474 bytes c54dc1d6ca7d0055",
		"metrics.prom": "5922 bytes 4af492806889c21d",
		"timeline.csv": "339202 bytes 2163ffc4740ef8a0",
		"trace.json":   "2446609 bytes e8ed843577c30ea3",
		"spans.json":   "312881 bytes b25d36585bd625e9",
	} {
		if got := digest(files[name]); got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
	text := string(out)
	for _, re := range []string{
		`verify: [0-9]+ acked slots read back, 0 lost`,
		`health: 1 deaths, 1 recoveries`,
		`1:healthy/g1`,
		`failed over to replica after shard failure|hedged to replica after slow primary`,
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
