package fault

// Cluster-level chaos scenarios. Disk faults (ParseScenario) act on one
// device's sectors and commands; shard events act on a whole shard — every
// device behind it — at a virtual instant. They share the key=value DSL so
// that a cluster chaos run is specified exactly like a disk fault run:
//
//	shardkill=IDX@DUR           kill shard IDX's devices at virtual time DUR
//	slowshard=IDX@DUR:PPM       from DUR on, derate shard IDX's arms by PPM
//	                            parts per million (1000000 = 2x slower seeks)
//
// Example: "shardkill=2@300ms,slowshard=1@100ms:3000000".
//
// As with ParseScenario, a repeated key is rejected rather than silently
// last-wins: one scenario holds at most one kill and one derate, which keeps
// the degraded-mode story (kill ONE shard, watch the cluster absorb it)
// explicit in the scenario string.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ShardEvent is one scheduled whole-shard fault.
type ShardEvent struct {
	// Shard indexes the target shard in the cluster's shard list.
	Shard int
	// At is the virtual instant the event fires.
	At time.Duration
	// DeratePPM slows the shard's disk arms by this many parts per million
	// from At on. Zero means the event is a kill: every device behind the
	// shard rejects all commands from At on (blockdev.ErrDeviceFailed).
	DeratePPM int64
}

// Kill reports whether the event is a whole-shard kill.
func (e ShardEvent) Kill() bool { return e.DeratePPM == 0 }

// ShardScenario is a parsed set of shard events, ordered by (At, Shard).
type ShardScenario struct {
	Events []ShardEvent
}

// KillFor returns the kill instant for shard idx (0 if none is scheduled).
func (s ShardScenario) KillFor(idx int) time.Duration {
	for _, e := range s.Events {
		if e.Kill() && e.Shard == idx {
			return e.At
		}
	}
	return 0
}

// ParseShardScenario parses a compact cluster chaos string of
// comma-separated key=value terms (see the package comment above for the
// grammar). The empty string parses to an empty scenario.
func ParseShardScenario(s string) (ShardScenario, error) {
	var sc ShardScenario
	err := scanTerms(s, func(term, k, v string) error {
		switch k {
		case "shardkill":
			ev, err := parseShardAt(v)
			if err != nil {
				return fmt.Errorf("fault: term %q: %v", term, err)
			}
			sc.Events = append(sc.Events, ev)
		case "slowshard":
			at, ppmStr, ok := strings.Cut(v, ":")
			if !ok {
				return fmt.Errorf("fault: term %q: want IDX@DUR:PPM", term)
			}
			ev, err := parseShardAt(at)
			if err != nil {
				return fmt.Errorf("fault: term %q: %v", term, err)
			}
			ppm, err := strconv.ParseInt(ppmStr, 10, 64)
			if err != nil {
				return fmt.Errorf("fault: term %q: bad ppm: %v", term, err)
			}
			if ppm <= 0 {
				return fmt.Errorf("fault: term %q: derate ppm must be > 0", term)
			}
			ev.DeratePPM = ppm
			sc.Events = append(sc.Events, ev)
		default:
			return fmt.Errorf("fault: unknown shard scenario key %q", k)
		}
		return nil
	})
	if err != nil {
		return sc, err
	}
	sort.Slice(sc.Events, func(i, j int) bool {
		if sc.Events[i].At != sc.Events[j].At {
			return sc.Events[i].At < sc.Events[j].At
		}
		return sc.Events[i].Shard < sc.Events[j].Shard
	})
	return sc, nil
}

// parseShardAt parses the shared "IDX@DUR" operand.
func parseShardAt(v string) (ShardEvent, error) {
	idxStr, durStr, ok := strings.Cut(v, "@")
	if !ok {
		return ShardEvent{}, fmt.Errorf("want IDX@DUR, got %q", v)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		return ShardEvent{}, fmt.Errorf("bad shard index: %v", err)
	}
	if idx < 0 {
		return ShardEvent{}, fmt.Errorf("shard index %d is negative", idx)
	}
	at, err := time.ParseDuration(durStr)
	if err != nil {
		return ShardEvent{}, fmt.Errorf("bad instant: %v", err)
	}
	if at <= 0 {
		return ShardEvent{}, fmt.Errorf("instant %v must be positive", at)
	}
	return ShardEvent{Shard: idx, At: at}, nil
}
