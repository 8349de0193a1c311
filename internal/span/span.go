// Package span records each I/O request's full lifecycle as a small span
// tree in virtual nanoseconds: a root request (submit → ack) whose child
// spans partition its latency into queueing, log-track switches, retries,
// mechanical phases (turnaround, overhead, seek, head switch, settle,
// rotational wait, transfer) and recovery stages.
//
// The invariant the instrumented drivers maintain — and the test suite
// asserts — is exact attribution: child spans are non-overlapping, laid out
// chronologically, and their durations sum to the request's end-to-end
// latency. There is no unattributed time, because the simulator's clock is
// virtual and every wait has a single owner.
//
// Like trace.Tracer, the recorder is disabled by being nil: every method on
// *Recorder and on the *Req handle is nil-receiver-safe and a disabled run
// allocates nothing and touches nothing. Recording never advances the
// virtual clock, so traced and untraced runs are timestamp-identical.
package span

import (
	"time"

	"tracklog/internal/disk"
)

// Phase identifies what a child span's interval was spent on.
type Phase uint8

const (
	// PQueue is time between submission (or the end of the previous
	// attempt) and the device starting to serve the request: scheduler
	// queue, log-writer batching delay, and arm contention. A = queue depth
	// at submit, B = writes ahead of a read (write-back interference).
	PQueue Phase = iota
	// PTrackSwitch is log-writer repositioning (track advance + reference
	// re-read) that overlapped this request's wait.
	PTrackSwitch
	// PRetry is one failed device command attempt, submit-to-error; the
	// successful attempt's phases follow it. A = attempt number (1-based).
	PRetry
	// PTurnaround is the read/write transducer turnaround penalty.
	PTurnaround
	// POverhead is fixed command processing overhead.
	POverhead
	// PSeek is arm movement.
	PSeek
	// PHeadSwitch is head-switch time between tracks of a cylinder.
	PHeadSwitch
	// PSettle is write settle time.
	PSettle
	// PRotWait is rotational latency. A = the disk's rotation period in ns
	// (when known), so analyzers can tell a predicted-miss full rotation
	// from in-budget fractions.
	PRotWait
	// PTransfer is media transfer time.
	PTransfer
	// PStaging marks a read served instantly from the staging buffer.
	PStaging
	// PLocate is recovery phase 1: locating the youngest log record.
	PLocate
	// PRebuild is recovery phase 2: rebuilding the staging buffer.
	PRebuild
	// PWriteBack is recovery phase 3: replaying pending write-backs.
	PWriteBack
	// PSubRead is an array member read sub-operation. A = member index.
	PSubRead
	// PSubWrite is an array member write sub-operation. A = member index.
	PSubWrite
	// PThrottle is foreground-write stall time spent throttled against
	// write-back progress under log pressure. A = staged bytes at entry.
	PThrottle
	// PShed is a zero-duration marker: the request was refused at
	// admission with ErrOverload. A = queue depth at the decision.
	PShed
	// PDeadline is a zero-duration marker: the request was abandoned with
	// ErrDeadlineExceeded. A = nanoseconds past the deadline.
	PDeadline
	// PFailover is a zero-duration marker: the cluster redirected the
	// request to the replica shard after the primary failed or was marked
	// dead. A = replica shard index.
	PFailover
	// PHedge is a zero-duration marker: the cluster issued a hedged read
	// to the replica after the primary ran past the hedge deadline.
	// A = replica shard index; B = 1 if the hedge won the race.
	PHedge

	numPhases
)

var phaseNames = [numPhases]string{
	"queue", "trackswitch", "retry", "turnaround", "overhead", "seek",
	"headswitch", "settle", "rotwait", "transfer", "staging",
	"locate", "rebuild", "writeback", "subread", "subwrite",
	"throttle", "shed", "deadline", "failover", "hedge",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Kind identifies the request type at the root of a span tree.
type Kind uint8

const (
	KWrite     Kind = iota // client synchronous write
	KRead                  // client read
	KWriteback             // background staging write-back flight
	KRecover               // crash recovery pass
)

var kindNames = [...]string{"write", "read", "writeback", "recover"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Span is one attributed interval of a request's life. Start and End are
// virtual nanoseconds; A and B are phase-specific attributes (see Phase).
type Span struct {
	Phase      Phase
	Start, End int64
	A, B       int64
}

// Dur returns the span's duration in ns.
func (s Span) Dur() int64 { return s.End - s.Start }

// Request is one completed request's span tree.
type Request struct {
	ID     int64
	Kind   Kind
	Err    bool   // beside Kind: a Request is 128 bytes
	Driver string // "trail", "std", "raid"
	Dev    string // device/track name, e.g. "data0"
	LBA    int64
	Count  int
	Start  int64   // submit instant, virtual ns
	End    int64   // ack instant, virtual ns
	Flows  []int64 // IDs of upstream requests this one commits (write-back)
	Spans  []Span
}

// Latency returns end-to-end request latency in ns.
func (r *Request) Latency() int64 { return r.End - r.Start }

// Attributed returns the total duration covered by child spans.
func (r *Request) Attributed() int64 {
	var sum int64
	for _, s := range r.Spans {
		sum += s.Dur()
	}
	return sum
}

// PhaseTotal returns the summed duration of one phase across the request.
func (r *Request) PhaseTotal(p Phase) int64 {
	var sum int64
	for _, s := range r.Spans {
		if s.Phase == p {
			sum += s.Dur()
		}
	}
	return sum
}

// DefaultCapacity is the recorder's default request ring size.
const DefaultCapacity = 1 << 14

// A recorder hands out requests, each inside its in-flight handle, from
// slabs and keeps finished requests' spans and flow edges in arena chunks, so
// a recorded request costs no allocation of its own. Each is sized to fill
// the allocator's 32 KiB size class on a 64-bit build: 240 handles of 136 B
// (a 128-byte Request and the recorder) are 32 640 B, 819 spans of 40 B are
// 32 760 B, 4 096 flow edges of 8 B are 32 768 B. A larger block would be
// rounded up to whole pages.
const (
	slabRequests = 240
	arenaSpans   = 819
	arenaFlows   = 4096
	// scratchLen is the capacity of a new in-flight list: for spans, room
	// for a queue child and a command's seven mechanical phases; for flow
	// edges, a write-back window's worth of client writes.
	scratchLen = 8
)

// Recorder buffers completed request span trees in a fixed-size ring;
// when full, the oldest completed request is evicted. A nil *Recorder is a
// valid disabled recorder.
//
// A request in flight appends its spans, and its flow edges once it has one,
// to scratch lists from the recorder's free lists. Finish copies them into
// the current arena chunks and puts the lists back, so only a finished
// request's exact spans and edges stay on the heap. A slab or chunk lives
// while any request in it is referenced; once the ring has evicted them all,
// it is garbage.
type Recorder struct {
	capn    int
	nextID  int64
	reqs    []*Request // ring storage
	head    int        // index of oldest element once the ring wrapped
	wrapped bool
	dropped int64

	slab  []Req // handles not yet handed out
	spans arena[Span]
	flows arena[int64]
}

// arena keeps finished requests' lists side by side in chunks, each capped at
// its length so appending to one copies, and the emptied in-flight lists for
// reuse.
type arena[T any] struct {
	chunk   []T   // the current chunk; finished requests' lists fill it
	scratch [][]T // free in-flight lists, each of length 0
}

// list returns a free in-flight list, or a new one of capacity scratchLen.
func (a *arena[T]) list() []T {
	if k := len(a.scratch); k > 0 {
		l := a.scratch[k-1]
		a.scratch = a.scratch[:k-1]
		return l
	}
	return make([]T, 0, scratchLen)
}

// keep copies l into the current chunk, starting one of at least chunkLen
// when l does not fit, puts l back on the free lists and returns the copy;
// nil for an empty l.
func (a *arena[T]) keep(l []T, chunkLen int) []T {
	var kept []T
	if n := len(l); n > 0 {
		if cap(a.chunk)-len(a.chunk) < n {
			a.chunk = make([]T, 0, max(chunkLen, n))
		}
		i := len(a.chunk)
		a.chunk = append(a.chunk, l...)
		kept = a.chunk[i : i+n : i+n]
	}
	if cap(l) > 0 {
		a.scratch = append(a.scratch, l[:0])
	}
	return kept
}

// NewRecorder returns a recorder retaining up to capacity completed
// requests (<= 0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capn: capacity}
}

// Len returns the number of retained completed requests.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.wrapped {
		return r.capn
	}
	return len(r.reqs)
}

// Dropped returns how many completed requests were evicted.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Requests returns the retained requests in completion order (oldest
// first). The slice is freshly allocated; the Request pointers are shared
// and stay valid for as long as they are held, eviction included. Each
// request's Spans is capped at its length, so appending to it copies and
// never reaches another request's spans.
func (r *Recorder) Requests() []*Request {
	if r == nil || len(r.reqs) == 0 {
		return nil
	}
	if !r.wrapped {
		out := make([]*Request, len(r.reqs))
		copy(out, r.reqs)
		return out
	}
	out := make([]*Request, 0, r.capn)
	out = append(out, r.reqs[r.head:]...)
	out = append(out, r.reqs[:r.head]...)
	return out
}

// Start opens a new request span tree at virtual instant `at` and returns a
// handle for attributing its phases. On a nil recorder it returns nil, and
// every method on a nil handle is a no-op — callers never need to check.
// The handle is the recorder's, carved from a slab with its request inside,
// so a caller may keep it anywhere at no allocation. Start is inlined, so a
// disabled recorder costs its callers a nil check; the work is in open.
func (r *Recorder) Start(kind Kind, driver, dev string, lba int64, count int, at int64) *Req {
	if r == nil {
		return nil
	}
	return r.open(kind, driver, dev, lba, count, at)
}

// open hands out the slab's next handle, its request filled in and holding a
// free in-flight span list.
func (r *Recorder) open(kind Kind, driver, dev string, lba int64, count int, at int64) *Req {
	if len(r.slab) == 0 {
		r.slab = make([]Req, slabRequests)
	}
	q := &r.slab[0]
	r.slab = r.slab[1:]
	r.nextID++
	*q = Req{rec: r, r: Request{
		ID: r.nextID, Kind: kind, Driver: driver, Dev: dev,
		LBA: lba, Count: count, Start: at, Spans: r.spans.list(),
	}}
	return q
}

// add moves a finished request's spans and flow edges into the arenas, puts
// its in-flight lists back on the free lists, and stores the request in the
// ring.
func (r *Recorder) add(req *Request) {
	req.Spans = r.spans.keep(req.Spans, arenaSpans)
	req.Flows = r.flows.keep(req.Flows, arenaFlows)

	if !r.wrapped && len(r.reqs) < r.capn {
		r.reqs = append(r.reqs, req)
		return
	}
	r.wrapped = true
	r.reqs[r.head] = req
	r.head++
	if r.head == r.capn {
		r.head = 0
	}
	r.dropped++
}

// Req is the in-flight handle for one request being attributed, and holds
// the request. A nil *Req (from a disabled recorder) absorbs every call.
type Req struct {
	r   Request
	rec *Recorder
}

// ID returns the request's id, or 0 on a nil handle.
func (q *Req) ID() int64 {
	if q == nil {
		return 0
	}
	return q.r.ID
}

// Child records one attributed interval. Empty and negative intervals are
// dropped, so callers can attribute unconditionally.
func (q *Req) Child(p Phase, start, end int64) { q.ChildAB(p, start, end, 0, 0) }

// ChildAB is Child with the phase-specific attributes set.
func (q *Req) ChildAB(p Phase, start, end, a, b int64) {
	if q == nil || end <= start {
		return
	}
	q.r.Spans = append(q.r.Spans, Span{Phase: p, Start: start, End: end, A: a, B: b})
}

// ChildPair records the adjacent PSubWrite intervals [start, mid] and [mid,
// end], with A set to a1 and a2, as two ChildAB calls would, but grows the
// request's span list once for both.
func (q *Req) ChildPair(start, mid, end, a1, a2 int64) {
	if q == nil {
		return
	}
	switch {
	case mid <= start:
		q.ChildAB(PSubWrite, mid, end, a2, 0)
	case end <= mid:
		q.ChildAB(PSubWrite, start, mid, a1, 0)
	default:
		q.r.Spans = append(q.r.Spans, Span{Phase: PSubWrite, Start: start, End: mid, A: a1},
			Span{Phase: PSubWrite, Start: mid, End: end, A: a2})
	}
}

// Point records a zero-duration marker span (e.g. a staging-buffer hit).
func (q *Req) Point(p Phase, at, a, b int64) {
	if q == nil {
		return
	}
	q.r.Spans = append(q.r.Spans, Span{Phase: p, Start: at, End: at, A: a, B: b})
}

// Flow links an upstream request id into this one (a write-back names the
// client writes whose data it commits); exporters draw these as arrows.
func (q *Req) Flow(from int64) {
	if q == nil || from == 0 {
		return
	}
	if q.r.Flows == nil {
		q.r.Flows = q.rec.flows.list()
	}
	q.r.Flows = append(q.r.Flows, from)
}

// Mechanical returns the span phase of a drive's mechanical phase:
// PTurnaround through PTransfer follow the drive's service order.
func Mechanical(ph disk.Phase) Phase { return PTurnaround + Phase(ph) }

// Command attributes one successful device command's mechanical phases: one
// child per phase the command paid, laid end to end from res.Start in
// service order, so they tile the command's service interval. rotPeriod, the
// drive's revolution time (0 if unknown), is recorded on the rotational-wait
// span so analyzers can classify full-rotation misses.
func (q *Req) Command(res *disk.Result, rotPeriod time.Duration) {
	if q == nil {
		return
	}
	cur := int64(res.Start)
	for ph := range disk.NumPhases {
		d := int64(res.Phases[ph])
		if d <= 0 {
			continue
		}
		var a int64
		if ph == disk.RotWait {
			a = int64(rotPeriod)
		}
		q.r.Spans = append(q.r.Spans, Span{Phase: Mechanical(ph), Start: cur, End: cur + d, A: a})
		cur += d
	}
}

// Finish closes the request at virtual instant end and commits it to the
// recorder's ring; its spans move to the recorder's arena.
func (q *Req) Finish(end int64, err bool) {
	if q == nil {
		return
	}
	q.r.End = end
	q.r.Err = err
	q.rec.add(&q.r)
}
