package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// TestCIWindowsGolden pins the -json report of each crash-exploration window
// CI runs, recorded at 18d5d33, and its exit status: every branch upholds
// the durability contract. A report lists every probe the window cut at, so
// a durability edge that stops emitting its probe moves the digest. A change
// that moves any byte here on purpose updates the pin and says so.
func TestCIWindowsGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stack", "trail", "-seed", "3", "-window", "200",
			"-faults", "latent=2,timeout=2,twindow=120,tdelay=2ms", "-fault-seed", "11"},
			"47720 bytes b74562035a37bef9"},
		{[]string{"-stack", "raid5", "-seed", "2", "-window", "40"},
			"9387 bytes f670cedfcfd2ffa2"},
		{[]string{"-stack", "wal", "-seed", "4", "-window", "30", "-horizon", "80ms"},
			"7241 bytes 48ff559bb9e06174"},
	} {
		name := strings.Join(tc.args[:2], " ")
		var out, errOut bytes.Buffer
		if code := run(append(tc.args, "-json"), &out, &errOut); code != 0 {
			t.Errorf("%s: exit %d, want 0: %s", name, code, &errOut)
		}
		if got := digest(out.Bytes()); got != tc.want {
			t.Errorf("%s -json: %s, want %s", name, got, tc.want)
		}
	}
}
