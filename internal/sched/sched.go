// Package sched implements disk request queues with two scheduling
// policies: LOOK and read-priority LOOK.
//
// A Queue owns one drive: a dedicated worker process pulls requests off the
// queue according to the policy and executes them on the drive one at a
// time. The paper's two subsystems map onto two policies: the standard Linux
// disk subsystem uses a LOOK elevator, and Trail's data disks use LOOK with
// strict read priority ("data disk reads are given higher priority than data
// disk writes", §4.1).
package sched

import (
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Policy selects the order requests are served in.
type Policy int

const (
	// LOOK is the classic elevator: serve the nearest request in the
	// current sweep direction, reversing at the last request.
	LOOK Policy = iota + 1
	// ReadPriorityLOOK serves all queued reads (LOOK order) before any
	// write, reads pre-empting queued writes on every dispatch decision.
	ReadPriorityLOOK
)

func (p Policy) String() string {
	switch p {
	case LOOK:
		return "look"
	case ReadPriorityLOOK:
		return "read-priority-look"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Request is a queued disk command. Done fires when the command completes;
// Result is valid after that. Done is held by value and bound by Submit, so a
// request costs its caller one allocation; do not copy a submitted Request.
type Request struct {
	Write bool
	LBA   int64
	Count int
	Data  []byte

	Done   sim.Event
	Result disk.Result

	// Err is the command's failure, if any, once Done fires. It wraps a
	// blockdev sentinel error (classify with errors.Is); Serve re-issues a
	// transient one within the budget its caller gives.
	Err error

	// Queued records when the request entered the queue, for queueing
	// delay accounting.
	Queued sim.Time

	// DepthAtSubmit and WritesAhead snapshot the queue state at Submit
	// (before this request was inserted): total pending requests, and
	// pending writes specifically. The span layer uses them to attribute
	// queueing delay — a read with WritesAhead > 0 was queued behind
	// write-back traffic. Always populated; recording them costs nothing.
	DepthAtSubmit int
	WritesAhead   int

	// Deadline is the request's absolute virtual-time deadline (0 = none).
	// An expired request completes with blockdev.ErrDeadlineExceeded
	// without touching the disk, and a request whose deadline is within
	// urgentSlack of now is dispatched earliest-deadline-first ahead of
	// the policy's normal order.
	Deadline sim.Time
	// Class is the request's shed priority when the queue depth is
	// bounded: on a full queue the lowest-class queued request is shed to
	// admit a higher-class newcomer.
	Class blockdev.Class
}

// Stats aggregates queue behaviour.
type Stats struct {
	Submitted, Completed int64
	// QueueWait is time spent waiting in queue (excluding service).
	QueueWait time.Duration
	// MaxDepth is the high-water mark of queued requests.
	MaxDepth int
	// Errors counts requests that completed with a fault.
	Errors int64
	// Shed counts requests completed with blockdev.ErrOverload because the
	// bounded queue was full.
	Shed int64
	// Expired counts requests completed with blockdev.ErrDeadlineExceeded
	// before reaching the disk.
	Expired int64
}

// Queue is a request queue bound to one drive. Create with New; submit with
// Submit (async) or Do (sync).
type Queue struct {
	env    *sim.Env
	disk   *disk.Disk
	policy Policy

	reads, writes []*Request // pending, in arrival order
	nonEmpty      *sim.Cond
	lastLBA       int64
	sweepUp       bool
	maxDepth      int // 0 = unbounded
	stats         Stats

	tr     *trace.Tracer
	trName string

	// Timeline instruments (nil = disabled): pending-depth level, per-bucket
	// shed/expiry counts, and nanoseconds of queue wait charged at dispatch.
	tlDepth              *timeline.Meter
	tlShed, tlExpired    *timeline.Mark
	tlWaitNS, tlDispatch *timeline.Mark
}

// New creates a queue over d with the given policy and starts its worker
// process on env.
func New(env *sim.Env, d *disk.Disk, policy Policy) *Queue {
	q := &Queue{
		env:      env,
		disk:     d,
		policy:   policy,
		nonEmpty: sim.NewCond(env),
		sweepUp:  true,
	}
	env.Go(fmt.Sprintf("sched-%s-%s", d.Params().Name, policy), q.worker)
	return q
}

// Disk returns the drive this queue feeds.
func (q *Queue) Disk() *disk.Disk { return q.disk }

// SetTracer attaches the queue to a tracer under the given track name (nil
// detaches): every enqueue and dispatch emits an event carrying the queue
// depth, so queueing delay is visible per device in the exported trace.
func (q *Queue) SetTracer(tr *trace.Tracer, name string) {
	q.tr = tr
	q.trName = name
}

// SetTimeline attaches the queue to a utilization-timeline aggregator under
// the given track: pending depth as a time-weighted level, shed and expiry
// counts, and queue-wait nanoseconds charged to the bucket each request is
// dispatched in. A nil aggregator disables all of it. Call once per
// aggregator, before the run.
func (q *Queue) SetTimeline(a *timeline.Aggregator, name string) {
	q.tlDepth = a.Meter("sched", name, "queue_depth")
	q.tlShed = a.Mark("sched", name, "shed")
	q.tlExpired = a.Mark("sched", name, "expired")
	q.tlWaitNS = a.Mark("sched", name, "wait_ns")
	q.tlDispatch = a.Mark("sched", name, "dispatches")
}

// noteDepth records the current pending depth on the timeline.
func (q *Queue) noteDepth(now sim.Time) {
	q.tlDepth.Set(float64(q.Depth()), int64(now))
}

// Stats returns a copy of the queue counters.
func (q *Queue) Stats() Stats { return q.stats }

// Depth returns the number of pending requests.
func (q *Queue) Depth() int { return len(q.reads) + len(q.writes) }

// SetMaxDepth bounds the pending-request depth (0 restores unbounded).
// When a Submit finds the queue full, the lowest-class queued request is
// shed with blockdev.ErrOverload to make room — or the newcomer itself,
// if nothing queued has a lower class.
func (q *Queue) SetMaxDepth(n int) { q.maxDepth = n }

// urgentSlack is the deadline horizon for earliest-deadline-first
// dispatch: a queued request whose deadline is this close to now jumps
// the policy's normal order. Requests without deadlines never jump.
const urgentSlack = 5 * time.Millisecond

// fail completes req with err without touching the disk.
func (q *Queue) fail(req *Request, err error) {
	req.Err = err
	req.Result.Err = err
	req.Result.Start = q.env.Now()
	req.Result.End = q.env.Now()
	q.stats.Completed++
	q.stats.Errors++
	req.Done.Trigger()
}

// shed refuses req, which is not (or no longer) queued, with err.
func (q *Queue) shed(req *Request, err error) {
	now := q.env.Now()
	q.stats.Shed++
	q.tlShed.Inc(int64(now))
	if q.tr != nil {
		q.tr.Emit(trace.Event{At: int64(now), Kind: trace.KShed, Track: q.trName,
			LBA: req.LBA, Count: req.Count, A: int64(q.Depth()), B: writeFlag(req.Write)})
	}
	q.fail(req, err)
}

// shedVictim returns the queued request with the lowest shed order if it
// ranks strictly below class, preferring the newest arrival among equals
// (earlier arrivals keep their slot). Returns nil when nothing queued
// ranks below class.
func (q *Queue) shedVictim(class blockdev.Class) *Request {
	var victim *Request
	consider := func(r *Request) {
		if victim == nil ||
			r.Class.ShedOrder() < victim.Class.ShedOrder() ||
			(r.Class.ShedOrder() == victim.Class.ShedOrder() && r.Queued >= victim.Queued) {
			victim = r
		}
	}
	for _, r := range q.reads {
		consider(r)
	}
	for _, r := range q.writes {
		consider(r)
	}
	if victim == nil || victim.Class.ShedOrder() >= class.ShedOrder() {
		return nil
	}
	return victim
}

// remove unlinks req from whichever pending list holds it.
func (q *Queue) remove(req *Request) {
	for i, r := range q.reads {
		if r == req {
			q.removeRead(i)
			return
		}
	}
	for i, r := range q.writes {
		if r == req {
			q.removeWrite(i)
			return
		}
	}
}

// Submit enqueues req and returns immediately. The caller waits on req.Done
// if it needs completion — including when the request is shed: a full
// bounded queue completes req (or a lower-class victim) with
// blockdev.ErrOverload before returning.
func (q *Queue) Submit(req *Request) {
	req.Done.Init(q.env)
	req.Queued = q.env.Now()
	req.DepthAtSubmit, req.WritesAhead = q.Depth(), len(q.writes)
	if q.maxDepth > 0 && req.DepthAtSubmit >= q.maxDepth {
		victim := q.shedVictim(req.Class)
		if victim == nil {
			// Nothing queued ranks below the newcomer: shed the newcomer.
			q.stats.Submitted++
			q.shed(req, fmt.Errorf("sched: queue full (depth %d): %w", q.Depth(), blockdev.ErrOverload))
			return
		}
		q.remove(victim)
		q.shed(victim, fmt.Errorf("sched: evicted %s for %s arrival: %w",
			victim.Class, req.Class, blockdev.ErrOverload))
		req.DepthAtSubmit, req.WritesAhead = q.Depth(), len(q.writes)
	}
	if req.Write {
		q.writes = append(q.writes, req)
	} else {
		q.reads = append(q.reads, req)
	}
	if d := q.Depth(); d > q.stats.MaxDepth {
		q.stats.MaxDepth = d
	}
	q.stats.Submitted++
	q.noteDepth(req.Queued)
	if q.tr != nil {
		q.tr.Emit(trace.Event{At: int64(req.Queued), Kind: trace.KEnqueue, Track: q.trName,
			LBA: req.LBA, Count: req.Count, A: int64(q.Depth()), B: writeFlag(req.Write)})
	}
	q.nonEmpty.Signal()
}

// Do enqueues req and blocks p until it completes.
func (q *Queue) Do(p *sim.Proc, req *Request) disk.Result {
	q.Submit(req)
	req.Done.Wait(p)
	return req.Result
}

// Serve waits for req, which the caller has submitted, and re-issues it
// after a transient fault: at most retries times, and never once its deadline
// has passed. Each re-issue is a full round trip through the queue, so the
// head repositions onto the target again, as a real driver's retried command
// would. Serve returns how many re-issues it made and the command's error.
//
// rq (nil while recording is off) gets, for each attempt, a queue child from
// cursor to the command's start, then the command's mechanical phases or a
// retry child numbered 1, 2, ...; a shed request ends in a shed point and an
// expired one in a deadline point. rq is finished at the end of the last
// attempt.
func (q *Queue) Serve(p *sim.Proc, req *Request, retries int, rq *span.Req, cursor int64) (int, error) {
	for n := 0; ; n++ {
		req.Done.Wait(p)
		res := &req.Result
		rq.ChildAB(span.PQueue, cursor, int64(res.Start), int64(req.DepthAtSubmit), int64(req.WritesAhead))
		switch err := req.Err; {
		case err == nil:
			rq.Command(res, q.disk.Params().RotPeriod())
			rq.Finish(int64(res.End), false)
			return n, nil
		case blockdev.IsShed(err):
			rq.Point(span.PShed, int64(res.End), int64(req.DepthAtSubmit), 0)
			rq.Finish(int64(res.End), true)
			return n, err
		case blockdev.IsExpired(err):
			rq.Point(span.PDeadline, int64(res.End), int64(p.Now().Sub(req.Deadline)), 0)
			rq.Finish(int64(res.End), true)
			return n, err
		}
		rq.ChildAB(span.PRetry, int64(res.Start), int64(res.End), int64(n+1), 0)
		switch {
		case !blockdev.IsTransient(req.Err) || n >= retries:
			rq.Finish(int64(res.End), true)
			return n, req.Err
		case req.Deadline != 0 && p.Now() >= req.Deadline:
			rq.Point(span.PDeadline, int64(res.End), int64(p.Now().Sub(req.Deadline)), 0)
			rq.Finish(int64(res.End), true)
			return n, fmt.Errorf("retry past deadline: %w", blockdev.ErrDeadlineExceeded)
		}
		cursor = int64(res.End)
		if q.tr != nil {
			q.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KRetry, Track: q.trName,
				LBA: req.LBA, Count: req.Count, A: int64(n + 1)})
		}
		// A read keeps its buffer; nothing else of the failed attempt carries over.
		*req = Request{Write: req.Write, LBA: req.LBA, Count: req.Count, Data: req.Data,
			Deadline: req.Deadline, Class: req.Class}
		q.Submit(req)
	}
}

// expireStale completes every queued request whose deadline has passed
// with blockdev.ErrDeadlineExceeded, so expired work never occupies the
// disk.
func (q *Queue) expireStale(now sim.Time) {
	for _, list := range []*[]*Request{&q.reads, &q.writes} {
		kept := (*list)[:0]
		for _, r := range *list {
			if r.Deadline != 0 && now >= r.Deadline {
				q.stats.Expired++
				q.tlExpired.Inc(int64(now))
				if q.tr != nil {
					q.tr.Emit(trace.Event{At: int64(now), Kind: trace.KDeadline, Track: q.trName,
						LBA: r.LBA, Count: r.Count, B: writeFlag(r.Write)})
				}
				q.fail(r, fmt.Errorf("sched: queued past deadline: %w", blockdev.ErrDeadlineExceeded))
				continue
			}
			kept = append(kept, r)
		}
		*list = kept
	}
	q.noteDepth(now)
}

// worker is the queue's dispatch loop.
func (q *Queue) worker(p *sim.Proc) {
	for {
		for q.Depth() == 0 {
			q.nonEmpty.Wait(p)
		}
		q.expireStale(p.Now())
		if q.Depth() == 0 {
			continue
		}
		req := q.pick()
		q.stats.QueueWait += p.Now().Sub(req.Queued)
		q.noteDepth(p.Now())
		q.tlDispatch.Inc(int64(p.Now()))
		q.tlWaitNS.Add(int64(p.Now().Sub(req.Queued)), int64(p.Now()))
		if q.tr != nil {
			q.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KDequeue, Track: q.trName,
				LBA: req.LBA, Count: req.Count, A: int64(q.Depth()), B: int64(p.Now().Sub(req.Queued))})
		}
		dr := disk.Request{Write: req.Write, LBA: req.LBA, Count: req.Count, Data: req.Data}
		req.Result = q.disk.Access(p, &dr)
		req.Err = req.Result.Err
		if req.Err != nil {
			q.stats.Errors++
		}
		if !req.Write {
			req.Data = dr.Data
		}
		q.lastLBA = req.LBA + int64(req.Count) - 1
		q.stats.Completed++
		req.Done.Trigger()
	}
}

// pick removes and returns the next request per the policy. A request
// whose deadline is within urgentSlack of now pre-empts the policy:
// among urgent requests the earliest deadline wins (ties broken by
// arrival order, then reads before writes), so deadlines at risk are
// served before the elevator finishes its sweep.
func (q *Queue) pick() *Request {
	if urgent := q.pickUrgent(q.env.Now()); urgent != nil {
		q.remove(urgent)
		return urgent
	}
	switch q.policy {
	case LOOK:
		return q.popLOOK(q.reads, q.writes)
	case ReadPriorityLOOK:
		if len(q.reads) > 0 {
			return q.popLOOK(q.reads, nil)
		}
		return q.popLOOK(nil, q.writes)
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", q.policy))
	}
}

// pickUrgent returns the queued request with the earliest at-risk
// deadline (within urgentSlack of now), or nil. Reads are scanned before
// writes so the read/write tie-break is deterministic.
func (q *Queue) pickUrgent(now sim.Time) *Request {
	var best *Request
	for _, list := range [][]*Request{q.reads, q.writes} {
		for _, r := range list {
			if r.Deadline == 0 || r.Deadline.Sub(now) > urgentSlack {
				continue
			}
			if best == nil || r.Deadline < best.Deadline ||
				(r.Deadline == best.Deadline && r.Queued < best.Queued) {
				best = r
			}
		}
	}
	return best
}

// popLOOK removes and returns the next request per LOOK among reads and
// writes (subsets of q.reads and q.writes; not both empty): the nearest one at
// or beyond the head position in the sweep direction, reversing the sweep
// when nothing lies that way. On equal distance the first seen wins, reads
// before writes. Both lists are scanned where they lie.
func (q *Queue) popLOOK(reads, writes []*Request) *Request {
	write, i, ok := q.lookDir(reads, writes)
	if !ok {
		q.sweepUp = !q.sweepUp
		if write, i, ok = q.lookDir(reads, writes); !ok {
			panic("sched: LOOK on an empty queue")
		}
	}
	if write {
		return q.removeWrite(i)
	}
	return q.removeRead(i)
}

// lookDir finds the request nearest the head position in the current sweep
// direction: index i of writes if write, of reads otherwise.
func (q *Queue) lookDir(reads, writes []*Request) (write bool, i int, ok bool) {
	var best int64
	for li, list := range [2][]*Request{reads, writes} {
		for j, r := range list {
			if (q.sweepUp && r.LBA < q.lastLBA) || (!q.sweepUp && r.LBA > q.lastLBA) {
				continue
			}
			if d := absDelta(r.LBA, q.lastLBA); !ok || d < best {
				write, i, ok, best = li == 1, j, true, d
			}
		}
	}
	return write, i, ok
}

func absDelta(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// writeFlag encodes a request direction into an event argument.
func writeFlag(w bool) int64 {
	if w {
		return 1
	}
	return 0
}

func (q *Queue) removeRead(i int) *Request {
	r := q.reads[i]
	q.reads = append(q.reads[:i], q.reads[i+1:]...)
	return r
}

func (q *Queue) removeWrite(i int) *Request {
	r := q.writes[i]
	q.writes = append(q.writes[:i], q.writes[i+1:]...)
	return r
}
