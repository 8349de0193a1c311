package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ErrBadChrome is the sentinel every ReadChrome failure wraps.
var ErrBadChrome = errors.New("trace: malformed Chrome trace")

// ChromeEvent is one non-metadata event of a Chrome trace file, as
// ReadChrome returns it. At and Dur are virtual nanoseconds (Dur on "X"
// events only); Track is the thread_name of the event's tid; ID and Args are
// the raw JSON of the id and args fields, "" when absent. Two events are
// the same event exactly when they compare equal.
type ChromeEvent struct {
	Name, Cat, Ph string
	At, Dur       int64
	Track         string
	ID, Args      string
}

// chromePhases are the phases ChromeWriter emits (metadata, complete,
// instant, nestable async begin/end and flow start/finish), each mapped to
// whether it needs an id.
var chromePhases = map[string]bool{"M": false, "X": false, "i": false, "b": true, "e": true, "s": true, "f": true}

// ReadChrome reads a trace file that ChromeWriter wrote and returns its
// events in file order, metadata left out. It checks what Perfetto and
// chrome://tracing rely on: the top-level shape, a name, a known phase, a pid
// and a named tid on every event, a non-negative ts on every non-metadata
// event, a non-negative dur on complete events, an id on async and flow
// events, and async begins and ends that pair up per id. Timestamps must be
// microseconds with three decimals, as Usec renders them.
func ReadChrome(r io.Reader) ([]ChromeEvent, error) {
	var file struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	data, err := io.ReadAll(r)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChrome, err)
	}
	if u := file.DisplayTimeUnit; u != "" && u != "ms" && u != "ns" {
		return nil, fmt.Errorf("%w: displayTimeUnit %q (want ms or ns)", ErrBadChrome, u)
	}
	if len(file.TraceEvents) == 0 {
		return nil, fmt.Errorf("%w: empty traceEvents array", ErrBadChrome)
	}
	tracks := make(map[int64]string)
	open, unclosed := make(map[string]int), 0 // async begins not yet ended, per id and in all
	events := make([]ChromeEvent, 0, len(file.TraceEvents))
	for i, raw := range file.TraceEvents {
		var ev struct {
			Name, Ph          *string
			Cat               string
			Ts, Dur, ID, Args json.RawMessage
			Pid, Tid          *int64
		}
		bad := func(format string, a ...any) error {
			return fmt.Errorf("%w: event %d: %s", ErrBadChrome, i, fmt.Sprintf(format, a...))
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, bad("%v", err)
		}
		needsID, known := false, false
		if ev.Ph != nil {
			needsID, known = chromePhases[*ev.Ph]
		}
		switch {
		case ev.Name == nil:
			return nil, bad("missing name")
		case !known:
			return nil, bad("%s: missing or unknown phase", *ev.Name)
		case ev.Pid == nil || ev.Tid == nil:
			return nil, bad("%s: missing pid/tid", *ev.Name)
		case needsID && ev.ID == nil:
			return nil, bad("%s: %q event needs an id", *ev.Name, *ev.Ph)
		}
		if *ev.Ph == "M" {
			if *ev.Name == "thread_name" {
				var args struct{ Name *string }
				if json.Unmarshal(ev.Args, &args) != nil || args.Name == nil {
					return nil, bad("thread_name without a name")
				}
				tracks[*ev.Tid] = *args.Name
			}
			continue
		}
		track, ok := tracks[*ev.Tid]
		if !ok {
			return nil, bad("%s: tid %d has no thread_name", *ev.Name, *ev.Tid)
		}
		out := ChromeEvent{Name: *ev.Name, Cat: ev.Cat, Ph: *ev.Ph, Track: track, ID: string(ev.ID), Args: string(ev.Args)}
		if out.At, err = parseUsec(ev.Ts); err != nil {
			return nil, bad("%s: ts %v", out.Name, err)
		}
		switch out.Ph {
		case "X":
			if out.Dur, err = parseUsec(ev.Dur); err != nil {
				return nil, bad("%s: dur %v", out.Name, err)
			}
		case "b":
			open[out.ID]++
			unclosed++
		case "e":
			if open[out.ID] == 0 {
				return nil, bad("%s: async end id %s without begin", out.Name, out.ID)
			}
			open[out.ID]--
			unclosed--
		}
		events = append(events, out)
	}
	if unclosed > 0 {
		return nil, fmt.Errorf("%w: %d async begin(s) unclosed", ErrBadChrome, unclosed)
	}
	return events, nil
}

// parseUsec is Usec's inverse for a non-negative time: raw is a JSON number
// of microseconds with exactly three decimals, and it returns nanoseconds.
func parseUsec(raw json.RawMessage) (int64, error) {
	whole, frac, ok := strings.Cut(string(raw), ".")
	us, errW := strconv.ParseUint(whole, 10, 63)
	ns, errF := strconv.ParseUint(frac, 10, 10)
	if !ok || len(frac) != 3 || errW != nil || errF != nil || us > math.MaxInt64/1000-1 {
		return 0, fmt.Errorf("%q is not non-negative microseconds with three decimals", raw)
	}
	return int64(us*1000 + ns), nil
}
