package fault

// Fuzzing the -faults scenario DSL: the string arrives straight from the
// command line (and from CI job definitions), so the parser must never
// panic and must be deterministic — same string, same Config or same
// rejection. Run the engine locally with e.g.
// `go test -fuzz=FuzzParseScenario -fuzztime=10s ./internal/fault`.

import "testing"

func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"",
		"latent=3,timeout=1",
		"latent=3, wlatent=2, onset=5s, timeout=1, twindow=500, tdelay=10ms, grow=8, growint=2s, failat=30s, maxlba=4096",
		"latent=3,latent=5",
		"latent",
		"=1",
		"bogus=1",
		"maxlba=-1",
		"onset=5",
		"latent=3,,timeout=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfg1, err1 := ParseScenario(s)
		cfg2, err2 := ParseScenario(s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error: %q vs %q", err1, err2)
			}
			return
		}
		if cfg1 != cfg2 {
			t.Fatalf("nondeterministic config: %+v vs %+v", cfg1, cfg2)
		}
	})
}

// FuzzParseShardScenario holds the cluster chaos DSL to the same contract:
// never panic, and a scenario it accepts names real shards at positive
// instants with a non-negative derate, in (At, Shard) order.
func FuzzParseShardScenario(f *testing.F) {
	for _, seed := range []string{
		"shardkill=1@250ms",
		"slowshard=0@100ms:2000000",
		"shardkill=1@1s,shardkill=2@2s",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseShardScenario(s)
		if err != nil {
			return
		}
		for i, e := range sc.Events {
			if e.Shard < 0 || e.At <= 0 || e.DeratePPM < 0 {
				t.Fatalf("ParseShardScenario(%q): event %d is %+v", s, i, e)
			}
			if i > 0 {
				if p := sc.Events[i-1]; p.At > e.At || p.At == e.At && p.Shard > e.Shard {
					t.Fatalf("ParseShardScenario(%q): event %d %+v after %+v", s, i, e, p)
				}
			}
		}
	})
}
