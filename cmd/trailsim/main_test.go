package main

import (
	"bytes"
	"testing"
)

// TestVerifySnapshotDigests pins the world checkpoint -verify-snapshot
// fingerprints after `-writes 50 -seed 7`: its length and FNV digest, for a
// Trail run, a baseline run and a Trail run under faults, recorded at
// 8a571dc. A deliberate format change updates these, the CI grep of the
// first line and TestSnapshotGoldenDigests together.
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
			var stderr bytes.Buffer
			args := append([]string{"-writes", "50", "-seed", "7", "-verify-snapshot"}, tc.args...)
			if code := run(args, &stderr); code != 0 {
				t.Fatalf("trailsim %v: exit %d: %s", args, code, &stderr)
			}
			if got, want := stderr.String(), "verify-snapshot: "+tc.want+"\n"; got != want {
				t.Errorf("trailsim %v: stderr %q, want %q", args, got, want)
			}
		})
	}
}
