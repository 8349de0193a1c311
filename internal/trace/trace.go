// Package trace implements deterministic, virtual-time event tracing for the
// whole storage stack: a ring-buffered structured tracer with typed events,
// the Chrome trace-event JSON exporter (for Perfetto) that span shares, its
// reader, and the prediction-accuracy audit of the Trail driver's
// head-position scheme, read back from a trace.
// Gauges over virtual time are timeline meters, not trace events.
//
// Design constraints, in order:
//
//  1. Tracing must never perturb simulated time. Hooks only observe — they
//     never sleep, schedule, or touch the event queue — so a traced run and
//     an untraced run of the same seed produce identical virtual-time
//     behaviour.
//  2. A disabled tracer is a nil pointer. Every method on *Tracer is
//     nil-receiver safe, and the instrumented layers additionally guard
//     their hooks with a nil check so the disabled path costs one branch.
//  3. Traces are bit-reproducible. Events carry only virtual time and
//     deterministic payloads, the ring preserves emission order (the
//     simulation is single-threaded), and the exporters format numbers
//     without any float formatting ambiguity.
//
// The package deliberately does not import internal/sim: timestamps are raw
// int64 virtual nanoseconds, so sim itself can hook the tracer without an
// import cycle.
package trace

// Kind is the type of a trace event. The taxonomy covers every
// latency-bearing phase of the simulated stack plus the decision points of
// the Trail driver, so a trace answers "why did this write cost what it
// did" — seek? rotation miss? queueing? reposition?
type Kind uint8

const (
	// Disk service-time phases (one event per phase of a command).
	KSeek       Kind = iota + 1 // arm travel; Dur = seek time
	KHeadSwitch                 // head activation on another surface
	KSettle                     // write settle
	KRotWait                    // rotational latency; Dur = wait
	KTransfer                   // media transfer of one track extent
	KOverhead                   // fixed command processing overhead
	KTurnaround                 // write-after-command turnaround delay
	KCommand                    // whole command span; B=1 for writes, A=sectors transferred

	// Fault handling.
	KFault // a command or sector fault surfaced; A encodes the phase
	KRetry // a layer re-issued a failed operation; A = attempt number

	// Trail driver decisions.
	KTrackSwitch  // tail moved to the next usable track; A=from, B=to track index
	KReposition   // head repositioned via a reference read
	KIdleRefresh  // idle-time prediction reference refresh
	KStagingFlush // a write-back window was dispatched; A = buffers in window
	KPredict      // a record write scored; LBA = target sector, Count = SPT, A = slack sectors, B = wait ns

	// Scheduler queues.
	KEnqueue // request entered a queue; A = depth after, B=1 for writes
	KDequeue // request left the queue for the drive; A = depth after, B = queue wait ns

	// Simulation kernel.
	KProcStart // process spawned
	KProcEnd   // process function returned
	KSched     // parked process readied (woken) by a primitive
	KBlock     // process parked on a primitive

	// QoS: admission control and deadlines.
	KShed     // request shed at admission (overload); A = queue depth, B=1 for writes
	KDeadline // request abandoned past its deadline; B=1 for writes
	KThrottle // foreground write throttled against write-back; Dur = stall, A = staged bytes
)

// String returns the stable event-name used in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

var kindNames = [...]string{
	KSeek:         "seek",
	KHeadSwitch:   "head-switch",
	KSettle:       "settle",
	KRotWait:      "rotate-wait",
	KTransfer:     "transfer",
	KOverhead:     "cmd-overhead",
	KTurnaround:   "turnaround",
	KCommand:      "command",
	KFault:        "fault",
	KRetry:        "retry",
	KTrackSwitch:  "track-switch",
	KReposition:   "reposition",
	KIdleRefresh:  "idle-refresh",
	KStagingFlush: "staging-flush",
	KPredict:      "predict",
	KEnqueue:      "enqueue",
	KDequeue:      "dequeue",
	KProcStart:    "proc-start",
	KProcEnd:      "proc-end",
	KSched:        "sched",
	KBlock:        "block",
	KShed:         "shed",
	KDeadline:     "deadline",
	KThrottle:     "throttle",
}

// Event is one structured trace event. At/Dur are virtual nanoseconds; Track
// names the trace row the event belongs to (a device like "log0"/"data1", or
// a process name for kernel events). LBA/Count describe the I/O extent where
// applicable; A and B are kind-specific arguments (see the Kind constants).
type Event struct {
	At    int64
	Dur   int64
	Kind  Kind
	Track string
	LBA   int64
	Count int
	A, B  int64
}

// DefaultCapacity is the ring size used by New when capacity <= 0.
const DefaultCapacity = 1 << 16

// Tracer collects events into a fixed-capacity ring buffer (oldest events
// are dropped once full). The zero value is not useful; create with New. A
// nil *Tracer is a valid disabled tracer: every method is a no-op.
type Tracer struct {
	buf     []Event
	start   int // index of the oldest event
	n       int // live events
	dropped int64
}

// New returns a tracer with the given ring capacity (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether the tracer is collecting (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. On a nil tracer it is a no-op; on a full ring the
// oldest event is dropped.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		t.n++
		return
	}
	// Ring full: overwrite the oldest slot.
	t.buf[t.start] = ev
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were evicted by ring overflow.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the buffered events in emission order (oldest first). The
// returned slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// Tracks returns the distinct Track names of buffered events in first-
// appearance order.
func (t *Tracer) Tracks() []string {
	if t == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for i := 0; i < t.n; i++ {
		tr := t.buf[(t.start+i)%len(t.buf)].Track
		if !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	return out
}
