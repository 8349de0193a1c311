// Command tracecheck validates a Chrome trace-event JSON file (the trace.json
// that trailsim -out and clustersim -out write) against the parts of the trace-event format that Perfetto
// and chrome://tracing rely on: the top-level shape, per-event required
// fields, known phase types, and non-negative durations. It exits non-zero
// with a diagnostic on the first violation, so CI can assert that exported
// traces stay loadable.
//
// Usage: tracecheck FILE
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// traceFile is the Chrome trace-event "JSON Object Format" top level.
type traceFile struct {
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	TraceEvents     []json.RawMessage `json:"traceEvents"`
}

// traceEvent covers the fields tracecheck validates; unknown fields are
// allowed (the format is open-ended).
type traceEvent struct {
	Name *string                    `json:"name"`
	Ph   *string                    `json:"ph"`
	Ts   *float64                   `json:"ts"`
	Dur  *float64                   `json:"dur"`
	Pid  *int64                     `json:"pid"`
	Tid  *int64                     `json:"tid"`
	ID   *json.RawMessage           `json:"id"`
	Args map[string]json.RawMessage `json:"args"`
}

// validPhases lists the phase types the simulator's exporters may emit:
// metadata, complete, instant, nestable async begin/end (span requests), and
// flow start/finish (log write → write-back arrows).
var validPhases = map[string]bool{
	"M": true, "X": true, "i": true,
	"b": true, "e": true, "s": true, "f": true,
}

// idPhases lists the phases that require an id field to pair up.
var idPhases = map[string]bool{"b": true, "e": true, "s": true, "f": true}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck FILE")
		os.Exit(2)
	}
	if err := check(os.Args[1]); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not valid trace-event JSON: %w", path, err)
	}
	if tf.DisplayTimeUnit != "" && tf.DisplayTimeUnit != "ms" && tf.DisplayTimeUnit != "ns" {
		return fmt.Errorf("%s: displayTimeUnit %q (want ms or ns)", path, tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: empty traceEvents array", path)
	}
	tracks := map[int64]bool{}
	var spans, instants, metas, asyncs, flows int
	asyncOpen := map[string]int{} // open nestable-async depth per id
	for i, raw := range tf.TraceEvents {
		var ev traceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("%s: event %d: %w", path, i, err)
		}
		switch {
		case ev.Name == nil:
			return fmt.Errorf("%s: event %d: missing name", path, i)
		case ev.Ph == nil:
			return fmt.Errorf("%s: event %d (%s): missing ph", path, i, *ev.Name)
		case !validPhases[*ev.Ph]:
			return fmt.Errorf("%s: event %d (%s): unknown phase %q", path, i, *ev.Name, *ev.Ph)
		case ev.Pid == nil || ev.Tid == nil:
			return fmt.Errorf("%s: event %d (%s): missing pid/tid", path, i, *ev.Name)
		}
		if *ev.Ph == "M" {
			metas++
			continue
		}
		if ev.Ts == nil {
			return fmt.Errorf("%s: event %d (%s): missing ts", path, i, *ev.Name)
		}
		if *ev.Ts < 0 {
			return fmt.Errorf("%s: event %d (%s): negative ts %v", path, i, *ev.Name, *ev.Ts)
		}
		if idPhases[*ev.Ph] && ev.ID == nil {
			return fmt.Errorf("%s: event %d (%s): %q event needs an id", path, i, *ev.Name, *ev.Ph)
		}
		switch *ev.Ph {
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("%s: event %d (%s): X event needs non-negative dur", path, i, *ev.Name)
			}
		case "b", "e":
			asyncs++
			key := string(*ev.ID)
			if *ev.Ph == "b" {
				asyncOpen[key]++
			} else {
				asyncOpen[key]--
				if asyncOpen[key] < 0 {
					return fmt.Errorf("%s: event %d (%s): async end id %s without begin", path, i, *ev.Name, key)
				}
			}
		case "s", "f":
			flows++
		default:
			instants++
		}
		// Event order need not be sorted by ts (viewers sort on load), so no
		// monotonicity requirement — spans are stamped at their start time
		// but emitted at completion.
		tracks[*ev.Tid] = true
	}
	for id, depth := range asyncOpen {
		if depth != 0 {
			return fmt.Errorf("%s: async id %s left %d begin(s) unclosed", path, id, depth)
		}
	}
	fmt.Printf("%s: ok — %d events (%d spans, %d instants, %d async, %d flow, %d metadata) on %d tracks\n",
		path, len(tf.TraceEvents), spans, instants, asyncs, flows, metas, len(tracks))
	return nil
}
