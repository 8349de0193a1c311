// Package sim implements a deterministic discrete-event simulation kernel
// with a virtual clock and cooperative processes.
//
// Every timing-sensitive component of the Trail reproduction (the rotational
// disk model, the Trail driver, workload generators, the transaction engine)
// runs as a simulated process on this kernel. Exactly one process executes at
// any instant; a process gives up control only by blocking on a kernel
// primitive (Sleep, Event.Wait, Cond.Wait, Resource.Acquire). Runs are
// bit-reproducible: the kernel never reads the wall clock and breaks ties in
// the event queue by insertion sequence number.
package sim

import (
	"fmt"
	"time"

	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t with millisecond precision, e.g. "12.345ms".
func (t Time) String() string { return time.Duration(t).String() }

// procState tracks where a process is in its lifecycle.
type procState uint8

const (
	// procReady means the process is scheduled in the event queue.
	procReady procState = iota + 1
	// procRunning means the process is the one currently executing.
	procRunning
	// procParked means the process is blocked on a primitive and is not in
	// the event queue; something must call env.ready(p) to resume it.
	procParked
	// procDone means the process function returned.
	procDone
)

// Proc is a simulated process. All blocking operations are methods on Proc so
// that the kernel always knows which process is yielding. A Proc is never
// reused, so that Done keeps answering after the process exits.
type Proc struct {
	env    *Env
	name   string
	id     int64
	resume chan *Proc // its goroutine's; every hand-off to p sends p
	fn     func(p *Proc)
	state  procState
	killed bool
	// daemon processes (samplers, background observers) do not keep the
	// simulation alive: Run returns once only daemon events remain queued.
	daemon bool
	done   Event // triggered when the process function returns
}

// killedPanic is the sentinel used to unwind processes on Env.Close.
type killedPanic struct{ p *Proc }

// Env is a simulation environment: a virtual clock plus the event queue.
// Create one with NewEnv; it is not safe for concurrent use (the whole point
// is that nothing in a simulation is concurrent in real time).
type Env struct {
	now    Time
	seq    int64
	queue  eventQueue
	driver chan struct{} // hand-off: dispatch loop -> the goroutine in RunUntil or Close
	procs  map[int64]*Proc
	nextID int64
	idle   []chan *Proc // goroutines whose process returned (see work)
	run    struct {
		// cur is the running process; nil while the driver has control.
		cur *Proc
		// paused, when non-nil, is a process parked in place by a probe
		// hook; RunUntil resumes it before popping the queue, which keeps a
		// paused-and-resumed run byte-identical to a never-paused one.
		paused *Proc
		// deadline is the argument of the RunUntil in progress.
		deadline Time
		closed   bool
	}
	// liveQueued counts queued events belonging to non-daemon processes;
	// when it reaches zero the simulation has nothing left to do but
	// housekeeping and Run returns.
	liveQueued int

	// probeSeq numbers interesting events (see probe.go); it advances
	// whether or not a hook is attached, so probe indices are identical in
	// hooked and unhooked runs.
	probeSeq  int64
	probeHook ProbeHook

	// tracer, when non-nil, observes process scheduling (see SetTracer).
	// Hooks never touch the clock or the queue, so a traced run is
	// bit-identical in virtual time to an untraced one.
	tracer *trace.Tracer

	// kstats counts the kernel's own work (see kernelstats.go). Always on:
	// the counters are deterministic functions of the event schedule.
	// mDispatchDepth, when non-nil, receives the queue depth at each
	// dispatch (attached via SetMetrics); reg is the registry SetMetrics
	// bound, released by Close.
	kstats         KernelStats
	mDispatchDepth *telemetry.Histogram
	reg            *telemetry.Registry
	// tlDispatch, when non-nil, counts dispatched events per virtual-time
	// bucket (attached via SetTimeline).
	tlDispatch *timeline.Mark

	// kernelPanic holds a panic propagated from a process goroutine; Run
	// re-panics with it on the caller's goroutine so failures surface in
	// the test or tool that drives the simulation.
	kernelPanic error
}

// NewEnv returns an empty environment with the clock at 0.
func NewEnv() *Env {
	return &Env{
		driver: make(chan struct{}),
		procs:  make(map[int64]*Proc),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer attaches (or with nil, detaches) an event tracer. The kernel
// emits process schedule/block events; tracing is purely observational and
// never changes virtual-time behaviour. Close releases the tracer's drive
// probes (trace.Tracer.Release).
func (e *Env) SetTracer(tr *trace.Tracer) { e.tracer = tr }

// SetTimeline attaches the kernel's own dispatch activity to a
// utilization-timeline aggregator: events dispatched per virtual-time bucket
// under ("sim", "kernel"). A nil aggregator disables it; observation never
// changes virtual-time behaviour.
func (e *Env) SetTimeline(a *timeline.Aggregator) {
	e.tlDispatch = a.Mark("sim", "kernel", "events_dispatched")
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (e *Env) Tracer() *trace.Tracer { return e.tracer }

// Go spawns a new simulated process named name. The process starts when the
// kernel next reaches the current virtual time in its queue (i.e. after the
// spawning process yields). It returns the Proc, whose Done event can be
// waited on.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// GoDaemon spawns a daemon process: a background observer (telemetry
// sampler, watchdog) that must not keep the simulation alive. Run returns
// as soon as every event left in the queue belongs to a daemon.
func (e *Env) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Env) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	if e.run.closed {
		panic("sim: Go on closed Env")
	}
	var resume chan *Proc
	if n := len(e.idle); n > 0 {
		resume, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		resume = make(chan *Proc)
		go e.work(resume)
	}
	e.nextID++
	p := &Proc{
		env:    e,
		name:   name,
		id:     e.nextID,
		resume: resume,
		fn:     fn,
		state:  procReady,
		daemon: daemon,
		done:   Event{env: e},
	}
	e.procs[p.id] = p
	e.kstats.ProcsSpawned++
	if n := len(e.procs); n > e.kstats.ProcsPeak {
		e.kstats.ProcsPeak = n
	}
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{At: int64(e.now), Kind: trace.KProcStart, Track: name})
	}
	e.schedule(e.now, p)
	return p
}

// work runs processes one after another on one goroutine: each receive in
// the loop is a new process's first dispatch. When its function returns, the
// goroutine goes on the idle list before dispatching the next event; a
// process that panics or is killed ends it, and so does Close.
func (e *Env) work(resume chan *Proc) {
	var p *Proc
	defer func() {
		if r := recover(); r != nil {
			p.state = procDone
			delete(e.procs, p.id)
			if kp, ok := r.(killedPanic); !ok || kp.p != p {
				// Re-panicking here would crash the whole program from a
				// bare goroutine with a confusing trace. Surface the panic
				// on the driver's side instead.
				e.kernelPanic = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
			// Unwound by Env.Close or panicked: either way the run is
			// over, so control goes straight back without dispatching.
			e.transfer(nil)
		}
	}()
	for p = range resume {
		p.resumed()
		p.fn(p)
		p.state, p.fn = procDone, nil
		delete(e.procs, p.id)
		e.kstats.ProcsFinished++
		if e.tracer != nil {
			e.tracer.Emit(trace.Event{At: int64(e.now), Kind: trace.KProcEnd, Track: p.name})
		}
		p.done.Trigger()
		e.idle = append(e.idle, resume)
		e.transfer(e.next())
	}
}

// schedule puts p into the event queue at time t.
func (e *Env) schedule(t Time, p *Proc) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(queued{at: t, seq: e.seq, proc: p})
	e.kstats.HeapPushes++
	if n := len(e.queue); n > e.kstats.QueuePeak {
		e.kstats.QueuePeak = n
	}
	p.state = procReady
	if !p.daemon {
		e.liveQueued++
	}
}

// ready resumes a parked process at the current time (FIFO among same-time
// wakeups).
func (e *Env) ready(p *Proc) {
	if p.state != procParked {
		panic(fmt.Sprintf("sim: ready on process %q in state %d", p.name, p.state))
	}
	e.kstats.Wakeups++
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{At: int64(e.now), Kind: trace.KSched, Track: p.name})
	}
	e.schedule(e.now, p)
}

// Run drives the simulation until the event queue is empty or until no event
// is earlier than the optional deadline (use RunUntil for a deadline). It
// returns the final virtual time. Processes still blocked on primitives when
// the queue drains are left parked; call Close to unwind them.
func (e *Env) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil drives the simulation until the event queue is empty (daemon
// processes excluded — a periodic sampler alone does not keep the clock
// advancing) or the next event would be after deadline. The clock never
// passes deadline.
//
// The caller's goroutine (the driver) only starts the run: it resumes one
// process and sleeps. From then on whichever process gives up control runs
// the dispatch loop itself (see yield) and the driver is woken only when the
// run is over: nothing live is queued, the next event is past deadline, a
// probe hook paused a process, or a process panicked.
func (e *Env) RunUntil(deadline Time) Time {
	if e.run.closed {
		panic("sim: RunUntil on closed Env")
	}
	e.run.deadline = deadline
	// A process paused at a probe resumes first, ahead of every queued
	// event: pausing queued nothing, so the pop order from here on matches a
	// never-paused run exactly.
	p := e.run.paused
	e.run.paused = nil
	if p == nil {
		p = e.next()
	}
	if p != nil {
		e.transfer(p)
		<-e.driver
	}
	if e.kernelPanic != nil {
		kp := e.kernelPanic
		e.kernelPanic = nil
		panic(kp)
	}
	return e.now
}

// next pops the event queue up to the deadline and returns the process whose
// event is due, with the clock advanced to it, or nil when the run is over.
// It runs on whichever goroutine holds control; pop order and seq assignment
// do not depend on which one that is.
func (e *Env) next() *Proc {
	for len(e.queue) > 0 && e.liveQueued > 0 {
		next := e.queue[0]
		if next.at > e.run.deadline {
			e.now = e.run.deadline
			return nil
		}
		e.queue.pop()
		e.kstats.HeapPops++
		if !next.proc.daemon {
			e.liveQueued--
		}
		if next.proc.state == procDone {
			continue // process was killed while queued
		}
		e.now = next.at
		e.kstats.EventsDispatched++
		e.mDispatchDepth.Observe(float64(len(e.queue) + 1))
		e.tlDispatch.Inc(int64(e.now))
		return next.proc
	}
	return nil
}

// transfer hands control to process n, or to the driver when n is nil. The
// caller must then block on its own channel or exit.
func (e *Env) transfer(n *Proc) {
	e.run.cur = n
	if n == nil {
		e.driver <- struct{}{}
		return
	}
	n.resume <- n
}

// Close unwinds every live process and idle goroutine so none leaks, then
// releases the instruments bound by SetTracer and SetMetrics so that neither
// references the world afterwards: the tracer drops its drives' head probes,
// and the registry's func-backed series keep the values they read here.
// After Close the environment must not be used. It is safe to call from the
// goroutine that called Run (not from inside a simulated process).
func (e *Env) Close() {
	if e.run.closed {
		return
	}
	e.run.closed = true
	e.run.paused = nil // a probe-paused proc is parked; the loop kills it
	for _, p := range e.procs {
		if p.state == procParked || p.state == procReady {
			p.killed = true
			e.transfer(p)
			<-e.driver
		}
	}
	for _, resume := range e.idle {
		close(resume)
	}
	e.procs = map[int64]*Proc{}
	e.queue = nil
	e.liveQueued = 0
	e.tracer.Release()
	e.reg.Release()
}

// yield gives up control from the running process p, whose caller has
// already recorded how p resumes (a queued wake-up, a waiter list), and
// returns when p next runs. p dispatches the next event itself: if that is
// its own wake-up it just continues, with no channel operation and no
// goroutine switch; otherwise it resumes the next process, or the driver when
// the run is over, directly. A process killed by Close that blocks again
// while unwinding (a deferred Sleep) dispatches nothing and keeps unwinding.
func (p *Proc) yield() {
	if !p.killed {
		if n := p.env.next(); n != p {
			p.env.transfer(n)
			<-p.resume
		}
	}
	p.resumed()
}

// resumed is the wake-up side of every hand-off to p.
func (p *Proc) resumed() {
	if p.killed {
		panic(killedPanic{p: p})
	}
	p.state = procRunning
}

// park blocks the calling process until something calls env.ready(p). Only
// p may: its goroutine may by now run another process.
func (p *Proc) park() {
	if p.env.run.cur != p {
		panic(fmt.Sprintf("sim: %q blocked from outside its own process", p.name))
	}
	if p.env.tracer != nil {
		p.env.tracer.Emit(trace.Event{At: int64(p.env.now), Kind: trace.KBlock, Track: p.name})
	}
	p.state = procParked
	p.yield()
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event triggered when the process function returns.
func (p *Proc) Done() *Event { return &p.done }

// Sleep blocks the process for d of virtual time. Non-positive durations
// still yield control (the process re-runs at the same instant, after other
// work queued at that instant).
func (p *Proc) Sleep(d time.Duration) {
	if p.env.run.cur != p {
		panic("sim: Sleep called from outside the running process")
	}
	at := p.env.now
	if d > 0 {
		at = at.Add(d)
	}
	p.state = procParked
	p.env.schedule(at, p)
	p.yield()
}

// Yield gives other processes scheduled at the current instant a chance to
// run before p continues.
func (p *Proc) Yield() { p.Sleep(0) }

// queued is an entry in the kernel's event queue.
type queued struct {
	at   Time
	seq  int64
	proc *Proc
}

// eventQueue is a binary min-heap on (at, seq), held by value: a process is
// queued at most once, so entries need no identity and pushing allocates
// nothing once the slice has grown. (at, seq) is a strict total order, so
// the pop order is the same for any correct heap.
type eventQueue []queued

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *eventQueue) push(it queued) {
	h := append(*q, it)
	*q = h
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes the minimum entry (q[0]).
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{} // drop the *Proc so a finished process can be collected
	h = h[:n]
	*q = h
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
