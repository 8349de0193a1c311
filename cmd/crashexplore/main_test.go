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
// CI runs, recorded at 18d5d33 (the wal window re-pinned once when each
// B+tree took a latch for its operations), and its exit status: every
// branch upholds the durability contract. A report lists every probe the
// window cut at, so a durability edge that stops emitting its probe moves
// the digest. A change that moves any byte here on purpose updates the pin
// and says so.
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
			"7230 bytes ceb29427218ff289"},
		// Whole censuses, recorded at ca10543, the last commit to replay
		// every branch from time zero.
		{[]string{"-stack", "stddisk", "-seed", "1", "-window", "0"},
			"6702 bytes 7eb9cb6f091ae176"},
		{[]string{"-stack", "trail", "-seed", "1", "-window", "0"},
			"159117 bytes 78b388e1fcfc5eff"},
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

// TestWindowPastEveryIndex: a window reaching past every probe index explores
// what -window 0 does. Skip+Window once overflowed to a negative end, and
// such a window explored nothing and passed.
func TestWindowPastEveryIndex(t *testing.T) {
	report := func(window string) string {
		var out, errOut bytes.Buffer
		if code := run([]string{"-stack", "stddisk", "-skip", "1", "-window", window, "-json"}, &out, &errOut); code != 0 {
			t.Fatalf("-window %s: exit %d: %s", window, code, &errOut)
		}
		return out.String()
	}
	whole, past := report("0"), report("9223372036854775807")
	if !strings.Contains(whole, `"candidates": 27,`) {
		t.Fatalf("-window 0 report does not hold the 27 candidates past -skip 1:\n%s", whole)
	}
	if past != whole {
		t.Errorf("-window 9223372036854775807 report:\n%s\nwant the -window 0 one:\n%s", past, whole)
	}
}

// TestBadArgumentsExit2: a negative -skip, -window or -horizon, and a flag
// the run would ignore, is refused with exit status 2 and an error on
// stderr before anything runs. A negative -window once scanned the whole
// horizon, a negative -horizon ran the default one, and -fault-seed
// without -faults seeded nothing.
func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-skip", "-1"},
		{"-window", "-5"},
		{"-horizon", "-80ms"},
		{"-stack", "nope"},
		{"-fault-seed", "7"},
		{"-stack", "raid5", "-faults", "latent=1"},
		{"-stack", "wal", "-faults", "latent=1", "-fault-seed", "3"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(args, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "crashexplore: ") {
				t.Errorf("crashexplore %v: exit %d, stderr %q; want exit 2 and an error", args, code, &errOut)
			}
			if out.Len() != 0 {
				t.Errorf("crashexplore %v printed a result:\n%s", args, &out)
			}
		})
	}
}
