package trace

import (
	"fmt"
	"strconv"
)

// Chrome trace-event export. The output is loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing. Each Track (device or kernel
// process) becomes one named thread under a single process; events with a
// duration become complete ("X") events, instants become instant ("i")
// events. The byte-level formatting rules live in ChromeWriter, and
// ReadChrome reads the file back.

// EmitChrome emits the buffered events into an existing ChromeWriter, so the
// event trace can share a file with other emitters (the span exporter).
// Nil-safe: a nil tracer emits nothing.
func (t *Tracer) EmitChrome(cw *ChromeWriter) {
	// Register every track up front, in first-appearance order, so tids are
	// stable across runs regardless of event interleaving.
	for _, track := range t.Tracks() {
		cw.TID(track)
	}
	for _, ev := range t.Events() {
		tid := cw.TID(ev.Track)
		args := fmt.Sprintf(`{"lba":%d,"count":%d,"a":%d,"b":%d}`, ev.LBA, ev.Count, ev.A, ev.B)
		if ev.Dur > 0 {
			cw.Complete(ev.Kind.String(), "sim", tid, ev.At, ev.Dur, args)
		} else {
			cw.Instant(ev.Kind.String(), "sim", tid, ev.At, args)
		}
	}
}

// quoteJSON quotes a string for JSON output (tracks and event names are
// plain ASCII identifiers, but be safe).
func quoteJSON(s string) string { return strconv.Quote(s) }
