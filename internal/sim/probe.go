package sim

// Probe events are the kernel's "interesting event" stream for crash
// exploration: each point at which a driver acknowledges a client write,
// persists a sector, or crosses a write-back flight boundary emits one probe
// with a monotonically increasing index. The index is counted whether or not
// a hook is attached, so event N in a hooked run is the same instant as event
// N in an unhooked run — the property the crash explorer's bisection relies
// on.
//
// A hook may pause the world at a probe by returning true. Pausing parks the
// emitting process *in place*, without scheduling any event: the next
// RunUntil resumes that process first, before popping the queue, so a
// paused-and-resumed run pops events in exactly the order of a never-paused
// run and stays byte-identical to it.

// ProbeKind classifies an interesting event.
type ProbeKind uint8

const (
	// ProbeAck fires when a driver acknowledges a client write as durable.
	ProbeAck ProbeKind = iota + 1
	// ProbeMediaWrite fires after one sector's contents reach the platter.
	ProbeMediaWrite
	// ProbeWBStart fires when a write-back flight is submitted to a data
	// disk's scheduler.
	ProbeWBStart
	// ProbeWBEnd fires when a write-back flight completes and its log
	// records are credited.
	ProbeWBEnd
	// ProbeCommit fires when a WAL flush becomes durable.
	ProbeCommit
)

// String names the kind for reports.
func (k ProbeKind) String() string {
	switch k {
	case ProbeAck:
		return "ack"
	case ProbeMediaWrite:
		return "media-write"
	case ProbeWBStart:
		return "wb-start"
	case ProbeWBEnd:
		return "wb-end"
	case ProbeCommit:
		return "commit"
	default:
		return "unknown"
	}
}

// ProbeEvent describes one interesting event.
type ProbeEvent struct {
	// Index is the 0-based position of the event in the run's probe stream.
	Index int64
	Kind  ProbeKind
	At    Time
	// Dev names the emitting component (disk name, device, driver).
	Dev string
	// LBA and Count locate the I/O the event belongs to, where meaningful.
	LBA   int64
	Count int
}

// ProbeHook observes probe events; returning true pauses the world at the
// event (see Env.RunUntil). Hooks must not touch the clock or the queue.
type ProbeHook func(ev ProbeEvent) (pause bool)

// SetProbeHook attaches (or with nil, detaches) the probe hook.
func (e *Env) SetProbeHook(h ProbeHook) { e.probeHook = h }

// ProbeCount returns the number of probe events emitted so far. It counts
// whether or not a hook is attached.
func (e *Env) ProbeCount() int64 { return e.probeSeq }

// Paused reports whether the world is paused at a probe event; RunUntil
// resumes it.
func (e *Env) Paused() bool { return e.run.paused != nil }

// EmitProbe records one interesting event from the running process p. The
// probe index advances unconditionally; if a hook is attached and asks to
// pause, p parks in place and RunUntil returns to its caller.
func (e *Env) EmitProbe(p *Proc, kind ProbeKind, dev string, lba int64, count int) {
	idx := e.probeSeq
	e.probeSeq++
	if e.probeHook == nil {
		return
	}
	if e.probeHook(ProbeEvent{Index: idx, Kind: kind, At: e.now, Dev: dev, LBA: lba, Count: count}) {
		p.pauseHere()
	}
}

// pauseHere parks the running process without scheduling a wakeup or
// dispatching anything, and wakes the driver; the next RunUntil resumes it
// first.
func (p *Proc) pauseHere() {
	e := p.env
	if e.run.cur != p {
		panic("sim: probe pause from outside the running process")
	}
	e.run.paused = p
	p.state = procParked
	e.transfer(nil)
	<-p.resume
	p.resumed()
}
