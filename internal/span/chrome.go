package span

import (
	"fmt"

	"tracklog/internal/trace"
)

// Chrome trace-event export of span trees. Each request becomes a nestable
// async ("b"/"e") event on a per-driver/device span track, its child spans
// become complete ("X") events on the same track, and write-back requests
// draw flow arrows ("s"/"f") from each client write they commit — so
// Perfetto shows a durable ack on the log disk flowing to its eventual
// in-place commit.

// EmitChrome emits the retained span trees into an existing ChromeWriter,
// so spans can share a file with the flat event trace. Nil-safe.
func (r *Recorder) EmitChrome(cw *trace.ChromeWriter) {
	// Where each already-emitted request ended, for flow arrows. Requests
	// are emitted in completion order, so a write-back's upstream client
	// writes have always been emitted first (or evicted, in which case the
	// arrow is skipped).
	type endpoint struct {
		tid int
		end int64
	}
	seen := make(map[int64]endpoint)
	for _, req := range r.Requests() {
		track := "span:" + req.Driver + "/" + req.Dev
		tid := cw.TID(track)
		args := fmt.Sprintf(`{"id":%d,"lba":%d,"count":%d,"err":%t}`,
			req.ID, req.LBA, req.Count, req.Err)
		cw.AsyncBegin(req.Kind.String(), "req", req.ID, tid, req.Start, args)
		for _, s := range req.Spans {
			sargs := fmt.Sprintf(`{"req":%d,"a":%d,"b":%d}`, req.ID, s.A, s.B)
			if s.Dur() > 0 {
				cw.Complete(s.Phase.String(), "phase", tid, s.Start, s.Dur(), sargs)
			} else {
				cw.Instant(s.Phase.String(), "phase", tid, s.Start, sargs)
			}
		}
		cw.AsyncEnd(req.Kind.String(), "req", req.ID, tid, req.End)
		for _, from := range req.Flows {
			src, ok := seen[from]
			if !ok {
				continue
			}
			// One arrow per upstream write: ack instant → write-back start.
			cw.FlowStart("commit", "flow", from, src.tid, src.end)
			cw.FlowFinish("commit", "flow", from, tid, req.Start)
		}
		seen[req.ID] = endpoint{tid: tid, end: req.End}
	}
}
