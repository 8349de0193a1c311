// Package stddisk implements the paper's comparison baseline: a standard
// disk subsystem in which every synchronous write goes to its final in-place
// location on the data disk, paying seek and rotational latency, behind a
// LOOK elevator — the behaviour of the Linux disk subsystem the paper
// measures Trail against.
package stddisk

import (
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/qos"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// maxRetries bounds how many times a transient command failure
// (blockdev.ErrTimeout) is re-issued before surfacing to the client. Media
// errors and device failure are never retried here — they are not transient.
const maxRetries = 3

// Stats counts the device's fault handling.
type Stats struct {
	// Retries counts transient-failure re-issues; Failures counts commands
	// surfaced to the client as errors after retries were exhausted or the
	// error was not retryable.
	Retries, Failures int64
}

// Device exposes one drive as a synchronous block device through a request
// scheduler.
type Device struct {
	id    blockdev.DevID
	queue *sched.Queue
	size  int64
	stats Stats
	pol   *qos.Policy
	// probeName is id.String(), formatted once rather than per acknowledged
	// write.
	probeName string

	rec     *span.Recorder
	recName string
}

var (
	_ blockdev.Device         = (*Device)(nil)
	_ blockdev.OptionedDevice = (*Device)(nil)
)

// New wraps d as a block device with the given scheduling policy (use
// sched.LOOK for the paper's baseline).
func New(env *sim.Env, d *disk.Disk, id blockdev.DevID, policy sched.Policy) *Device {
	return &Device{
		id:        id,
		queue:     sched.New(env, d, policy),
		size:      d.Geom().TotalSectors(),
		probeName: id.String(),
	}
}

// ID returns the device identity.
func (d *Device) ID() blockdev.DevID { return d.id }

// Sectors returns the device capacity in sectors.
func (d *Device) Sectors() int64 { return d.size }

// Queue returns the underlying request queue, for stats.
func (d *Device) Queue() *sched.Queue { return d.queue }

// SetQoS applies an overload policy: the scheduler queue depth is bounded
// (excess arrivals shed lowest-class-first with blockdev.ErrOverload),
// default deadlines apply to requests without one, and retry budgets become
// per-class. nil restores the historical unbounded behaviour.
func (d *Device) SetQoS(pol *qos.Policy) {
	d.pol = pol
	d.queue.SetMaxDepth(pol.DepthBound())
}

// SetTracer attaches the device — its drive and its scheduler queue, which
// also traces the retries — to a tracer under the given track name. Pass nil
// to detach.
func (d *Device) SetTracer(tr *trace.Tracer, name string) {
	d.queue.SetTracer(tr, name)
	d.queue.Disk().SetTracer(tr, name)
}

// SetTimeline attaches the device's drive (mechanical-state lane) and
// scheduler queue (depth/wait/shed series) to a utilization-timeline
// aggregator under the given track. A nil aggregator disables both. Call
// once per aggregator, before the run.
func (d *Device) SetTimeline(a *timeline.Aggregator, name string) {
	d.queue.SetTimeline(a, name)
	d.queue.Disk().SetTimeline(a, name)
}

// Stats returns a copy of the fault-handling counters.
func (d *Device) Stats() Stats { return d.stats }

// SetRecorder attaches a span recorder under the given device name (nil
// detaches): every client command becomes one span tree whose children —
// queue wait, retries, and the drive's mechanical phases — exactly tile its
// end-to-end latency.
func (d *Device) SetRecorder(rec *span.Recorder, name string) {
	d.rec = rec
	d.recName = name
}

// do issues req with bounded retry on transient failures (sched.Queue.Serve).
// With a QoS policy attached, the deadline rides into the scheduler (which
// sheds and expires), a retry never fires past the deadline, and the retry
// budget is the request class's.
func (d *Device) do(p *sim.Proc, verb string, req *sched.Request, opts blockdev.Options) error {
	req.Deadline = d.pol.Deadline(p.Now(), opts.Deadline)
	req.Class = opts.Class
	var rq *span.Req
	var cursor int64 // attribution frontier: all time before it is accounted
	if d.rec != nil {
		kind := span.KRead
		if req.Write {
			kind = span.KWrite
		}
		cursor = int64(p.Now())
		rq = d.rec.Start(kind, "std", d.recName, req.LBA, req.Count, cursor)
	}
	d.queue.Submit(req)
	n, err := d.queue.Serve(p, req, d.pol.RetryBudget(opts.Class, maxRetries+1)-1, rq, cursor)
	d.stats.Retries += int64(n)
	if err == nil {
		return nil
	}
	d.stats.Failures++
	if blockdev.IsShed(err) || blockdev.IsExpired(err) {
		// Overload outcome from the bounded scheduler, or a retry that
		// would have fired past the deadline.
		return fmt.Errorf("stddisk %v %s: %w", d.id, verb, err)
	}
	return fmt.Errorf("stddisk %v %s (attempt %d): %w", d.id, verb, n+1, err)
}

// Read returns count sectors starting at lba, blocking p for queueing plus
// service time. Transient command failures are retried up to maxRetries;
// other faults surface wrapping their blockdev sentinel.
func (d *Device) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	return d.ReadOpts(p, lba, count, blockdev.Options{})
}

// ReadOpts reads with per-request options, into opts.Into when it fits.
func (d *Device) ReadOpts(p *sim.Proc, lba int64, count int, opts blockdev.Options) ([]byte, error) {
	if err := blockdev.CheckRange(d.size, lba, count); err != nil {
		return nil, fmt.Errorf("stddisk %v read: %w", d.id, err)
	}
	req := &sched.Request{LBA: lba, Count: count, Data: opts.Buffer(count)}
	if err := d.do(p, "read", req, opts); err != nil {
		return nil, err
	}
	return req.Data, nil
}

// Write makes count sectors at lba durable in place; it blocks p until the
// sectors are on the platter. Transient command failures are retried up to
// maxRetries; other faults surface wrapping their blockdev sentinel.
func (d *Device) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return d.WriteOpts(p, lba, count, data, blockdev.Options{})
}

// WriteOpts writes with per-request QoS options.
func (d *Device) WriteOpts(p *sim.Proc, lba int64, count int, data []byte, opts blockdev.Options) error {
	if err := blockdev.CheckWrite(d.size, lba, count, data); err != nil {
		return fmt.Errorf("stddisk %v write: %w", d.id, err)
	}
	err := d.do(p, "write", &sched.Request{Write: true, LBA: lba, Count: count, Data: data}, opts)
	if err == nil {
		// The in-place write is durable and about to be acknowledged to the
		// client: a crash-exploration interesting event.
		p.Env().EmitProbe(p, sim.ProbeAck, d.probeName, lba, count)
	}
	return err
}
