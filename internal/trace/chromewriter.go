package trace

import (
	"bufio"
	"fmt"
	"io"
)

// ChromeWriter is a low-level emitter for Chrome trace-event JSON (the JSON
// Object Format, {"traceEvents": [...]}), shared by the event tracer's
// exporter and the span layer's request-tree exporter so both can interleave
// into a single file. It is hand-rolled rather than encoding/json so the
// byte stream is fully deterministic: timestamps are virtual nanoseconds
// rendered as microseconds with exactly three decimal places, field order is
// fixed, and no floating-point formatting is involved anywhere.
//
// All events live under a single process (pid 1); each named track becomes
// one thread, with tids allocated in first-use order so they are stable
// across runs.
type ChromeWriter struct {
	bw    *bufio.Writer
	first bool
	tids  map[string]int
	next  int
}

// NewChromeWriter starts a trace file on w. The caller must finish it with
// Close.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{bw: bufio.NewWriter(w), first: true, tids: make(map[string]int), next: 1}
	cw.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	cw.Emit(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"tracklog-sim"}}`)
	return cw
}

// Emit appends one pre-rendered event object.
func (cw *ChromeWriter) Emit(line string) {
	if !cw.first {
		cw.bw.WriteString(",\n")
	}
	cw.first = false
	cw.bw.WriteString(line)
}

// TID returns the thread id for a named track, allocating the id and
// emitting its thread_name metadata on first use.
func (cw *ChromeWriter) TID(track string) int {
	if tid, ok := cw.tids[track]; ok {
		return tid
	}
	tid := cw.next
	cw.next++
	cw.tids[track] = tid
	cw.Emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`,
		tid, quoteJSON(track)))
	return tid
}

// Complete emits a complete ("X") event. args is a pre-rendered JSON object
// or "" for none.
func (cw *ChromeWriter) Complete(name, cat string, tid int, atNS, durNS int64, args string) {
	line := fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":%d`,
		quoteJSON(name), quoteJSON(cat), Usec(atNS), Usec(durNS), tid)
	cw.Emit(line + argsTail(args))
}

// Instant emits a thread-scoped instant ("i") event.
func (cw *ChromeWriter) Instant(name, cat string, tid int, atNS int64, args string) {
	line := fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","ts":%s,"pid":1,"tid":%d,"s":"t"`,
		quoteJSON(name), quoteJSON(cat), Usec(atNS), tid)
	cw.Emit(line + argsTail(args))
}

// AsyncBegin and AsyncEnd emit a nestable async ("b"/"e") pair of category
// "req"; events with the same id form one async track entry.
func (cw *ChromeWriter) AsyncBegin(name string, id int64, tid int, atNS int64, args string) {
	line := fmt.Sprintf(`{"name":%s,"cat":"req","ph":"b","id":%d,"ts":%s,"pid":1,"tid":%d`,
		quoteJSON(name), id, Usec(atNS), tid)
	cw.Emit(line + argsTail(args))
}

// AsyncEnd closes the async event opened by AsyncBegin with the same id.
func (cw *ChromeWriter) AsyncEnd(name string, id int64, tid int, atNS int64) {
	cw.Emit(fmt.Sprintf(`{"name":%s,"cat":"req","ph":"e","id":%d,"ts":%s,"pid":1,"tid":%d}`,
		quoteJSON(name), id, Usec(atNS), tid))
}

// FlowStart and FlowFinish emit a "commit" flow arrow ("s"/"f") of category
// "flow" between two points; viewers draw an arrow from each start to the
// finish with the same id. The finish uses binding point "e" so it attaches
// to the enclosing slice's end.
func (cw *ChromeWriter) FlowStart(id int64, tid int, atNS int64) {
	cw.Emit(fmt.Sprintf(`{"name":"commit","cat":"flow","ph":"s","id":%d,"ts":%s,"pid":1,"tid":%d}`,
		id, Usec(atNS), tid))
}

// FlowFinish terminates the flow arrow started with the same id.
func (cw *ChromeWriter) FlowFinish(id int64, tid int, atNS int64) {
	cw.Emit(fmt.Sprintf(`{"name":"commit","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%s,"pid":1,"tid":%d}`,
		id, Usec(atNS), tid))
}

// argsTail renders the optional trailing args field and closes the object.
func argsTail(args string) string {
	if args == "" {
		return "}"
	}
	return `,"args":` + args + "}"
}

// Close terminates the traceEvents array and flushes.
func (cw *ChromeWriter) Close() error {
	if _, err := cw.bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// Usec renders ns as microseconds with exactly three decimals ("1234.567"),
// with no float formatting.
func Usec(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}
