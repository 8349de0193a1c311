package tpcc

import (
	"fmt"
	"testing"
)

// TestKeyBuildersMatchSprintf pins every key builder to the fmt verbs it
// replaced, at the edges of each field: zero, the widest value that fits,
// one digit too many, and a negative number (the sign counts in the width).
func TestKeyBuildersMatchSprintf(t *testing.T) {
	edge := func(width int) []int {
		max := 1
		for i := 0; i < width; i++ {
			max *= 10
		}
		return []int{0, 1, max - 1, max, -1}
	}
	check := func(name string, got []byte, format string, args ...any) {
		t.Helper()
		if want := fmt.Sprintf(format, args...); string(got) != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
	for _, w := range edge(4) {
		check("wKey", wKey(nil, w), "w:%04d", w)
		for _, d := range edge(2) {
			check("dKey", dKey(nil, w, d), "d:%04d:%02d", w, d)
			check("noPrefix", noPrefix(nil, w, d), "n:%04d:%02d:", w, d)
			for _, c := range edge(5) {
				check("cKey", cKey(nil, w, d, c), "c:%04d:%02d:%05d", w, d, c)
				check("ocPrefix", ocPrefix(nil, w, d, c), "x:%04d:%02d:%05d:", w, d, c)
				for _, o := range edge(8) {
					check("ocKey", ocKey(nil, w, d, c, o), "x:%04d:%02d:%05d:%08d", w, d, c, o)
				}
			}
			for _, o := range edge(8) {
				check("oKey", oKey(nil, w, d, o), "o:%04d:%02d:%08d", w, d, o)
				check("noKey", noKey(nil, w, d, o), "n:%04d:%02d:%08d", w, d, o)
				for _, l := range edge(2) {
					check("olKey", olKey(nil, w, d, o, l), "l:%04d:%02d:%08d:%02d", w, d, o, l)
				}
			}
		}
		for _, i := range edge(6) {
			check("sKey", sKey(nil, w, i), "s:%04d:%06d", w, i)
		}
		for _, seq := range []int64{0, 1, 999999999999, 1000000000000, 1 << 40, -1} {
			check("hKey", hKey(nil, w, seq), "h:%04d:%012d", w, seq)
		}
	}
	for _, i := range edge(6) {
		check("iKey", iKey(nil, i), "i:%06d", i)
	}
}

// TestKeySuffix holds the suffix parser to what Sscanf("%d") read from the
// keys the builders write, including a field grown past its width.
func TestKeySuffix(t *testing.T) {
	for _, o := range []int{0, 7, 99999999, 100000000} {
		if got, ok := keySuffix(noKey(nil, 3, 4, o), noPrefix(nil, 3, 4)); !ok || got != o {
			t.Errorf("new-order key %d parsed as %d, %v", o, got, ok)
		}
		if got, ok := keySuffix(ocKey(nil, 3, 4, 5, o), ocPrefix(nil, 3, 4, 5)); !ok || got != o {
			t.Errorf("customer-order key %d parsed as %d, %v", o, got, ok)
		}
	}
	if _, ok := keySuffix([]byte("n:0001:01:"), noPrefix(nil, 1, 1)); ok {
		t.Error("empty suffix parsed")
	}
}

// TestAppendPaddedMatchesSprintf holds appendPadded to %0*d at every width
// a key uses and past it: zero, one, the widest value that fits, the first
// that does not, a value far wider, and negatives, each appended after a
// prefix.
func TestAppendPaddedMatchesSprintf(t *testing.T) {
	for width := 0; width <= 12; width++ {
		fits := int64(1)
		for range width {
			fits *= 10
		}
		fits--
		for _, v := range []int64{0, 1, 7, fits, fits + 1, 123456789012345, 1<<63 - 1, -1, -fits, -fits - 1, -1 << 63} {
			got := appendPadded([]byte("k:"), v, width)
			if want := fmt.Sprintf("k:%0*d", width, v); string(got) != want {
				t.Errorf("appendPadded(%d, width %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}
