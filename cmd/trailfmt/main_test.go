package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// digest is an artefact's length and FNV-64a, the form the golden pins use.
func digest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%d bytes %016x", len(b), h.Sum64())
}

// TestOutputGolden pins what trailfmt prints after a drained and after a
// power-cut workload, recorded at 18d5d33: the log disk's header, the
// records found on its media and the youngest of them.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "277 bytes 2032ca82f48c1323"},
		{[]string{"-crash"}, "289 bytes 26a6a4bf2c24ba87"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 0 {
			t.Fatalf("trailfmt %v: exit %d: %s", tc.args, code, &errOut)
		}
		if got := digest(out.Bytes()); got != tc.want {
			t.Errorf("trailfmt %v: %s, want %s\n%s", tc.args, got, tc.want, &out)
		}
	}
}
