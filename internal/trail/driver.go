package trail

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Driver errors.
var (
	// ErrNeedsRecovery means the log disk header shows an unclean shutdown;
	// run Recover before creating a driver.
	ErrNeedsRecovery = errors.New("trail: log disk needs recovery")
	// ErrClosed means the driver has been shut down.
	ErrClosed = errors.New("trail: driver is shut down")
)

// Fault-handling retry bounds. Transient failures (blockdev.ErrTimeout) and
// log media errors are retried this many times per request before the error
// surfaces to the client; the counts are small because every retry costs the
// timeout expiry or a reposition.
const (
	maxWriteRetries    = 5
	maxReadRetries     = 3
	maxWritebackTries  = 5
	maxRefReadAttempts = 4
)

// Config tunes the Trail driver. The zero value selects the paper's
// parameters via Default.
type Config struct {
	// UtilizationThreshold is the track fill fraction beyond which the
	// driver moves the head to the next track after a write (paper: 30%).
	UtilizationThreshold float64
	// MaxBatchSectors caps the data sectors aggregated into one write
	// record (paper: MAX_TRAIL_BATCH). Set to the size of fixed-size
	// requests, it gives one request per record (Table 1's batch of 1).
	MaxBatchSectors int
	// FixedDelta, when > 0, disables the driver's command-overhead
	// modelling and applies the paper's raw prediction formula with a
	// fixed delta of this many sectors (ablation: small values land behind
	// the head and cost a full rotation per write).
	FixedDelta int
	// IdleReposition, when > 0, refreshes the prediction reference point
	// after the log disk has been idle this long (paper §3.1: "periodically
	// reposition the log disk head ... when the log disk is idle").
	IdleReposition time.Duration
	// DataPolicy schedules the data disks (paper: reads have priority).
	DataPolicy sched.Policy
	// QoS enables overload protection: bounded log-queue admission with
	// ErrOverload shedding, per-request deadlines, per-class retry
	// budgets, and foreground-write throttling against write-back
	// progress. nil disables QoS entirely (historical behaviour).
	QoS *qos.Policy
}

// Default returns the paper's configuration.
func Default() Config {
	return Config{
		UtilizationThreshold: 0.30,
		MaxBatchSectors:      MaxBatch,
		DataPolicy:           sched.ReadPriorityLOOK,
	}
}

// withDefaults fills zero fields from Default.
func (c Config) withDefaults() Config {
	d := Default()
	if c.UtilizationThreshold <= 0 {
		c.UtilizationThreshold = d.UtilizationThreshold
	}
	if c.MaxBatchSectors <= 0 || c.MaxBatchSectors > MaxBatch {
		c.MaxBatchSectors = d.MaxBatchSectors
	}
	if c.DataPolicy == 0 {
		c.DataPolicy = d.DataPolicy
	}
	return c
}

// Stats aggregates driver activity for the paper's experiments.
type Stats struct {
	// Writes counts client write requests; Records counts physical log
	// disk writes (batching makes Records <= Writes).
	Writes, Records int64
	// LoggedSectors counts data sectors written to the log (headers
	// excluded).
	LoggedSectors int64
	// Repositions counts track switches; RepositionTime is their cost.
	Repositions    int64
	RepositionTime time.Duration
	// TrackUtilSum/TrackUtilTracks accumulate per-track space utilization,
	// sampled when the driver leaves a track (§5.2).
	TrackUtilSum    float64
	TrackUtilTracks int64
	// LogFullStalls counts waits for a free track (log disk full).
	LogFullStalls int64
	// WriteBacks counts data-disk writes issued by the write-back path;
	// SupersededWriteBacks counts staged versions that never needed their
	// own data-disk write because a newer version covered them.
	WriteBacks           int64
	SupersededWriteBacks int64
	// ReadsFromStaging counts reads served from the staging buffer.
	ReadsFromStaging int64
	// IdleRefreshes counts idle-time reference point refreshes.
	IdleRefreshes int64
	// Fault handling (all zero on a fault-free rig):
	// LogWriteRetries counts record writes re-attempted after a transient
	// or media fault; LogMediaErrors counts log sectors burned by media
	// errors (the allocator skips them afterwards); LogRefRetries counts
	// failed reference-point reads; LogDiskFailures counts log disks lost.
	LogWriteRetries int64
	LogMediaErrors  int64
	LogRefRetries   int64
	LogDiskFailures int64
	// ReadRetries and WritebackRetries count transient-fault re-issues on
	// the data disks; AbandonedWritebacks counts write-backs given up on
	// (their blocks stay pinned in staging and recoverable from the log);
	// FailedWrites counts client writes that surfaced an error.
	ReadRetries         int64
	WritebackRetries    int64
	AbandonedWritebacks int64
	FailedWrites        int64
	// QoS telemetry (all zero while Config.QoS is nil):
	// ShedWrites counts writes refused at admission with ErrOverload;
	// DeadlineExceeded counts requests abandoned past their deadline;
	// ThrottleStalls/ThrottleTime account foreground writes stalled
	// against write-back progress; MaxLogQueue is the log queue's
	// high-water mark (always tracked — it is the degradation signal the
	// Overload experiment plots).
	ShedWrites       int64
	DeadlineExceeded int64
	ThrottleStalls   int64
	ThrottleTime     time.Duration
	MaxLogQueue      int
}

// FaultCounters exports the driver's fault/retry telemetry as a counter set.
func (s Stats) FaultCounters() telemetry.Counts {
	return telemetry.Counts{
		"trail.log_write_retries":    s.LogWriteRetries,
		"trail.log_media_errors":     s.LogMediaErrors,
		"trail.log_ref_retries":      s.LogRefRetries,
		"trail.log_disk_failures":    s.LogDiskFailures,
		"trail.read_retries":         s.ReadRetries,
		"trail.writeback_retries":    s.WritebackRetries,
		"trail.abandoned_writebacks": s.AbandonedWritebacks,
		"trail.failed_writes":        s.FailedWrites,
	}
}

// Counters exports the full driver telemetry (activity and fault handling)
// as a counter set. Rendering one is deterministic — String() sorts by name
// — so every stats report built from it is byte-stable across runs.
func (s Stats) Counters() telemetry.Counts {
	c := s.FaultCounters()
	c["trail.writes"] = s.Writes
	c["trail.records"] = s.Records
	c["trail.logged_sectors"] = s.LoggedSectors
	c["trail.repositions"] = s.Repositions
	c["trail.reposition_time_us"] = s.RepositionTime.Microseconds()
	c["trail.log_full_stalls"] = s.LogFullStalls
	c["trail.writebacks"] = s.WriteBacks
	c["trail.superseded_writebacks"] = s.SupersededWriteBacks
	c["trail.reads_from_staging"] = s.ReadsFromStaging
	c["trail.idle_refreshes"] = s.IdleRefreshes
	c["trail.shed_writes"] = s.ShedWrites
	c["trail.deadline_exceeded"] = s.DeadlineExceeded
	c["trail.throttle_stalls"] = s.ThrottleStalls
	c["trail.max_log_queue"] = int64(s.MaxLogQueue)
	return c
}

// AvgTrackUtilization returns the mean per-track space utilization over all
// tracks the driver has filled and left.
func (s Stats) AvgTrackUtilization() float64 {
	if s.TrackUtilTracks == 0 {
		return 0
	}
	return s.TrackUtilSum / float64(s.TrackUtilTracks)
}

// pendingWrite is a client write waiting for (or in) a log disk write.
type pendingWrite struct {
	devIdx int
	lba    int64
	count  int
	data   []byte
	done   sim.Event // by value: one allocation per write, not two
	queued sim.Time
	// deadline is the request's absolute virtual-time deadline (0 = none):
	// past it the driver abandons the request with ErrDeadlineExceeded
	// instead of logging or retrying it. class selects its retry budget.
	deadline sim.Time
	class    blockdev.Class
	// retries counts failed log-write attempts for this request; err is the
	// terminal failure handed back to the client when done fires (nil on
	// success).
	retries int
	err     error

	// Span attribution (nil/zero while recording is disabled). rq is the
	// request's span tree; cursor is the attribution frontier — every virtual
	// nanosecond before it is already covered by a child span; qdepth
	// snapshots the log queue depth at submit.
	rq     *span.Req
	cursor int64
	qdepth int
}

// logDisk is the per-log-disk state: the track allocator, the head model,
// and the per-disk record chain. A Driver has one or more — multiple log
// disks are the paper's §5.1 "final optimization", hiding the repositioning
// overhead because another log disk accepts writes while one switches tracks.
type logDisk struct {
	idx  int
	disk *disk.Disk
	g    *geom.Geometry

	// Allocator: posIdx indexes the tail track in UsableTrack's order;
	// trackUsed marks sectors holding records this visit (a record lands at
	// the closest free run at or after the predicted head position);
	// busyCount, grown as the tail reaches new tracks, counts live records.
	posIdx     int
	trackUsed  []bool
	usedOnTail int
	busyCount  []int32
	spaceFreed *sim.Cond

	// head predicts the head position; refBuf takes what a reference read
	// returns.
	head   headModel
	refBuf []byte

	// Per-disk record chain (prev_sect pointers stay on one disk so
	// recovery can walk each disk independently).
	outstanding   sim.FIFO[*record]
	lastRecordLBA int64

	// img, blocks and batch are this disk's one writer's record image (sealed
	// in place), block list and batch: reused for every record.
	img    []byte
	blocks []BlockRef
	batch  []*pendingWrite

	writerBusy bool
	// dead marks a log disk lost to blockdev.ErrDeviceFailed; its writer
	// has exited and the allocator never touches it again.
	dead bool

	// name is the disk's tracer track and timeline and metrics name ("logN").
	name string

	// lastRepoStart/End bound the most recent track reposition, so the span
	// layer can carve the stall out of a pending write's queue time. Only the
	// latest reposition is kept: a request that waited through several track
	// switches attributes the earlier ones to queueing, which is accurate
	// enough for blame (the request was queued behind them, not causing them).
	lastRepoStart, lastRepoEnd int64
}

// Driver is the Trail disk subsystem driver: one or more log disks serving
// one or more data disks, with a host-memory staging buffer.
type Driver struct {
	env *sim.Env
	cfg Config

	logs  []*logDisk
	epoch uint32

	dataDisks  []*disk.Disk
	dataQueues []*sched.Queue
	devIDs     []blockdev.DevID

	// Log write queue shared by every log disk's writer process.
	logQ     sim.FIFO[*pendingWrite]
	logQCond *sim.Cond

	// Record and staging bookkeeping.
	seq          uint64
	staging      map[bufKey]*bufEntry
	stagedBytes  int64 // sum of bytes() over staging, kept where entries come and go
	stageStamp   int64 // stage calls so far; orders overlapping staged extents
	wbQueues     []*sim.Queue[bufKey]
	windows      [][wbWindow]wbFlight // each data disk's write-back window
	allIdleCond  *sim.Cond
	lastActivity sim.Time

	// wbProgress wakes foreground writes throttled against write-back
	// progress; broadcast whenever a write-back flight completes.
	wbProgress *sim.Cond

	stats  Stats
	closed bool
	// failed holds the terminal error once every log disk has died; all
	// subsequent writes fail with it immediately.
	failed error

	// free is recycled request bookkeeping and staged images (DESIGN.md
	// §4): memory, not state.
	free recycled

	// tr observes driver decisions when tracing is enabled (nil otherwise).
	tr *trace.Tracer

	// rec records per-request span trees when attached (nil otherwise).
	rec *span.Recorder

	// dataNames are the data disks' tracer track, span device, timeline and
	// metrics names ("dataN"); probeNames are the component names their
	// probe events report under ("trail-dataN").
	dataNames, probeNames []string

	// Timeline instruments (nil = disabled): driver-level levels and
	// per-bucket event counts. Device lanes live on the disks and queues.
	tlLogQ, tlStaged, tlFlights      *timeline.Meter
	tlShed, tlThrottle, tlThrottleNS *timeline.Mark
	tlStagingFlush, tlWriteBacks     *timeline.Mark
}

// NewDriver initializes the Trail driver over one formatted log disk, the
// paper's standard configuration. See NewDriverMulti for the multi-log-disk
// extension.
func NewDriver(env *sim.Env, log *disk.Disk, data []*disk.Disk, cfg Config) (*Driver, error) {
	return NewDriverMulti(env, []*disk.Disk{log}, data, cfg)
}

// NewDriverMulti initializes the Trail driver over one or more formatted
// log disks and the given data disks. It returns ErrNeedsRecovery if any
// log disk shows an unclean shutdown (run Recover/RecoverLogs first).
// Device IDs are assigned as (major 8, minor i) in data disk order.
func NewDriverMulti(env *sim.Env, logs []*disk.Disk, data []*disk.Disk, cfg Config) (*Driver, error) {
	if len(logs) == 0 {
		return nil, errors.New("trail: no log disks")
	}
	if len(data) == 0 {
		return nil, errors.New("trail: no data disks")
	}
	cfg = cfg.withDefaults()

	// Read every header; all must be clean. The new epoch tops them all.
	var epoch uint32
	headers := make([]*DiskHeader, len(logs))
	for i, lg := range logs {
		hdr, err := ReadHeader(lg)
		if err != nil {
			return nil, err
		}
		if !hdr.CleanShutdown {
			return nil, fmt.Errorf("%w: log disk %d epoch %d crashed", ErrNeedsRecovery, i, hdr.Epoch)
		}
		if hdr.Epoch > epoch {
			epoch = hdr.Epoch
		}
		headers[i] = hdr
	}
	epoch++

	// A record (header + batch) must always fit on the smallest track of
	// any log disk, or the allocator could never place it.
	for _, lg := range logs {
		for _, z := range lg.Geom().Zones {
			if cfg.MaxBatchSectors+1 > z.SPT {
				cfg.MaxBatchSectors = z.SPT - 1
			}
		}
	}

	d := &Driver{
		env:         env,
		cfg:         cfg,
		epoch:       epoch,
		logQCond:    sim.NewCond(env),
		staging:     make(map[bufKey]*bufEntry),
		windows:     make([][wbWindow]wbFlight, len(data)),
		allIdleCond: sim.NewCond(env),
		wbProgress:  sim.NewCond(env),
	}
	for i, lg := range logs {
		ld := &logDisk{
			idx:           i,
			name:          fmt.Sprintf("log%d", i),
			disk:          lg,
			g:             lg.Geom(),
			spaceFreed:    sim.NewCond(env),
			head:          newHeadModel(lg.Params()),
			lastRecordLBA: -1,
			refBuf:        make([]byte, geom.SectorSize),
			img:           make([]byte, geom.SectorSize, (1+cfg.MaxBatchSectors)*geom.SectorSize),
			blocks:        make([]BlockRef, 0, cfg.MaxBatchSectors),
		}
		ld.busyCount = make([]int32, 1)
		_, _, spt := ld.tailTrack()
		ld.trackUsed = make([]bool, spt)
		d.logs = append(d.logs, ld)
	}
	for i, dd := range data {
		d.dataDisks = append(d.dataDisks, dd)
		d.dataQueues = append(d.dataQueues, sched.New(env, dd, cfg.DataPolicy))
		d.devIDs = append(d.devIDs, blockdev.DevID{Major: 8, Minor: uint8(i)})
		d.dataNames = append(d.dataNames, fmt.Sprintf("data%d", i))
		d.probeNames = append(d.probeNames, fmt.Sprintf("trail-data%d", i))
		q := sim.NewQueue[bufKey](env)
		d.wbQueues = append(d.wbQueues, q)
		idx := i
		env.Go(fmt.Sprintf("trail-writeback-%d", i), func(p *sim.Proc) { d.writebackLoop(p, idx) })
	}

	// Mark every log disk in-use: epoch bumped, crash variable armed.
	// Boot-time housekeeping, not on a measured path.
	for i, lg := range logs {
		headers[i].Epoch = epoch
		headers[i].CleanShutdown = false
		if err := writeHeaderAll(lg, headers[i]); err != nil {
			return nil, err
		}
	}

	for _, ld := range d.logs {
		ld := ld
		env.Go(fmt.Sprintf("trail-logwriter-%d", ld.idx), func(p *sim.Proc) { d.logWriterLoop(p, ld) })
	}
	if cfg.IdleReposition > 0 {
		env.Go("trail-idle-repositioner", d.idleLoop)
	}
	return d, nil
}

// SetTracer attaches tr to the driver and every device beneath it: log disks
// trace as "logN", data disks and their scheduler queues as "dataN". Beyond
// device-level events, the driver scores its own log-write placement: each
// clean record write emits a predict event with the rotational wait its
// completion time implies (trace.AuditEvents reads them back). Pass nil to
// detach.
func (d *Driver) SetTracer(tr *trace.Tracer) {
	d.tr = tr
	for _, ld := range d.logs {
		ld.disk.SetTracer(tr, ld.name)
	}
	for i, dd := range d.dataDisks {
		dd.SetTracer(tr, d.dataNames[i])
		d.dataQueues[i].SetTracer(tr, d.dataNames[i])
	}
}

// SetRecorder attaches a span recorder to the driver and its data-disk read
// path: every client write and read becomes one span tree whose children —
// log-queue wait, track-switch stalls, retries, and the serving command's
// mechanical phases — exactly tile its end-to-end latency. Write-back and
// recovery record their own trees (see writebackLoop and RecoverOptions).
// Pass nil to detach.
func (d *Driver) SetRecorder(rec *span.Recorder) {
	d.rec = rec
}

// Recorder returns the attached span recorder (nil when detached).
func (d *Driver) Recorder() *span.Recorder { return d.rec }

// SetTimeline attaches a utilization-timeline aggregator to the driver and
// every device beneath it: log disks get mechanical-state lanes as "logN",
// data disks and their scheduler queues as "dataN", and the driver itself
// contributes its shared levels (log-queue depth, staged bytes, in-flight
// write-backs) and per-bucket event counts (sheds, throttle stalls and
// nanoseconds, staging flushes, completed write-backs) under the
// trail/driver track. A nil aggregator leaves everything disabled. Call
// once per aggregator, before the run.
func (d *Driver) SetTimeline(a *timeline.Aggregator) {
	d.tlLogQ = a.Meter("trail", "driver", "log_queue_depth")
	d.tlStaged = a.Meter("trail", "driver", "staged_bytes")
	d.tlFlights = a.Meter("trail", "driver", "wb_flights")
	d.tlShed = a.Mark("trail", "driver", "shed_writes")
	d.tlThrottle = a.Mark("trail", "driver", "throttle_stalls")
	d.tlThrottleNS = a.Mark("trail", "driver", "throttle_ns")
	d.tlStagingFlush = a.Mark("trail", "driver", "staging_flush")
	d.tlWriteBacks = a.Mark("trail", "driver", "writebacks")
	for _, ld := range d.logs {
		ld.disk.SetTimeline(a, ld.name)
	}
	for i, dd := range d.dataDisks {
		dd.SetTimeline(a, d.dataNames[i])
		d.dataQueues[i].SetTimeline(a, d.dataNames[i])
	}
}

// Stats returns a copy of the driver counters.
func (d *Driver) Stats() Stats { return d.stats }

// Epoch returns the driver's current epoch.
func (d *Driver) Epoch() uint32 { return d.epoch }

// NumLogDisks returns the number of log disks behind the driver.
func (d *Driver) NumLogDisks() int { return len(d.logs) }

// LogQueueLen returns the number of client writes waiting for a log writer.
func (d *Driver) LogQueueLen() int { return d.logQ.Len() }

// DataQueue returns the scheduler queue of data disk idx, for stats.
func (d *Driver) DataQueue(idx int) *sched.Queue { return d.dataQueues[idx] }

// OutstandingRecords returns the number of log records not yet fully
// committed to the data disks.
func (d *Driver) OutstandingRecords() int {
	n := 0
	for _, ld := range d.logs {
		for _, r := range ld.outstanding.Live() {
			if !r.done {
				n++
			}
		}
	}
	return n
}

// Dev returns data disk idx as a block device.
func (d *Driver) Dev(idx int) *DataDev {
	return &DataDev{
		drv:  d,
		idx:  idx,
		id:   d.devIDs[idx],
		size: d.dataDisks[idx].Geom().TotalSectors(),
	}
}

// DataDev exposes one Trail data disk through the standard block device
// interface. Writes are durable on return (logged); reads come from the
// staging buffer or the data disk.
type DataDev struct {
	drv  *Driver
	idx  int
	id   blockdev.DevID
	size int64
}

var (
	_ blockdev.Device         = (*DataDev)(nil)
	_ blockdev.OptionedDevice = (*DataDev)(nil)
)

// ID returns the device identity.
func (dv *DataDev) ID() blockdev.DevID { return dv.id }

// Sectors returns the device capacity in sectors.
func (dv *DataDev) Sectors() int64 { return dv.size }

// Read returns count sectors at lba.
func (dv *DataDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	return dv.ReadOpts(p, lba, count, blockdev.Options{})
}

// ReadOpts reads with per-request options, into opts.Into when it fits.
func (dv *DataDev) ReadOpts(p *sim.Proc, lba int64, count int, opts blockdev.Options) ([]byte, error) {
	if err := blockdev.CheckRange(dv.size, lba, count); err != nil {
		return nil, fmt.Errorf("trail %v read: %w", dv.id, err)
	}
	return dv.drv.read(p, dv.idx, lba, count, opts)
}

// Write makes count sectors at lba durable; it returns as soon as the data
// is on the log disk.
func (dv *DataDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return dv.WriteOpts(p, lba, count, data, blockdev.Options{})
}

// WriteOpts writes with per-request QoS options.
func (dv *DataDev) WriteOpts(p *sim.Proc, lba int64, count int, data []byte, opts blockdev.Options) error {
	if err := blockdev.CheckWrite(dv.size, lba, count, data); err != nil {
		return fmt.Errorf("trail %v write: %w", dv.id, err)
	}
	return dv.drv.write(p, dv.idx, lba, count, data, opts)
}

// shedWrite refuses a write at admission: the log queue is at the class's
// bound and the request completes immediately with ErrOverload, recorded as
// a zero-latency span tree whose single marker names the shed.
func (d *Driver) shedWrite(p *sim.Proc, devIdx int, lba int64, count int) error {
	d.stats.ShedWrites++
	d.tlShed.Inc(int64(p.Now()))
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KShed, Track: "trail",
			LBA: lba, Count: count, A: int64(d.logQ.Len()), B: 1})
	}
	if d.rec != nil {
		now := int64(p.Now())
		rq := d.rec.Start(span.KWrite, "trail", d.dataNames[devIdx], lba, count, now)
		rq.Point(span.PShed, now, int64(d.logQ.Len()), 0)
		rq.Finish(now, true)
	}
	return fmt.Errorf("trail %v write: log queue full (depth %d): %w",
		d.devIDs[devIdx], d.logQ.Len(), blockdev.ErrOverload)
}

// throttleWrite stalls a foreground write against write-back progress when
// staged-but-unwritten bytes exceed the policy's high-water mark, resuming
// below half of it (or failing with ErrDeadlineExceeded if the
// request's deadline passes while throttled). The stall is attributed as a
// PThrottle span child so ExplainTail can name log pressure as root cause.
func (d *Driver) throttleWrite(p *sim.Proc, devIdx int, lba int64, count int, deadline sim.Time) error {
	pol := d.cfg.QoS
	if pol == nil || pol.HighWater <= 0 {
		return nil
	}
	stagedAtEntry := d.StagedBytes()
	if stagedAtEntry < int64(pol.HighWater) {
		return nil
	}
	low := int64(pol.HighWater) / 2
	start := p.Now()
	d.stats.ThrottleStalls++
	d.tlThrottle.Inc(int64(start))
	for d.StagedBytes() >= low && d.failed == nil && !d.closed {
		if deadline != 0 && p.Now() >= deadline {
			d.stats.DeadlineExceeded++
			d.stats.ThrottleTime += p.Now().Sub(start)
			d.recordThrottle(p, devIdx, lba, count, start, stagedAtEntry, true, deadline)
			return fmt.Errorf("trail %v write: deadline passed while throttled: %w",
				d.devIDs[devIdx], blockdev.ErrDeadlineExceeded)
		}
		d.wbProgress.Wait(p)
	}
	d.stats.ThrottleTime += p.Now().Sub(start)
	d.recordThrottle(p, devIdx, lba, count, start, stagedAtEntry, false, 0)
	return nil
}

// recordThrottle emits the trace/span evidence of one throttle stall.
func (d *Driver) recordThrottle(p *sim.Proc, devIdx int, lba int64, count int,
	start sim.Time, staged int64, expired bool, deadline sim.Time) {
	dur := p.Now().Sub(start)
	d.tlThrottleNS.Add(int64(dur), int64(p.Now()))
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(start), Dur: int64(dur), Kind: trace.KThrottle,
			Track: "trail", LBA: lba, Count: count, A: staged})
	}
	if d.rec != nil && expired {
		// The write never reached the log queue: its whole story is the
		// throttle stall ending at its deadline.
		rq := d.rec.Start(span.KWrite, "trail", d.dataNames[devIdx], lba, count, int64(start))
		rq.ChildAB(span.PThrottle, int64(start), int64(p.Now()), staged, 0)
		rq.Point(span.PDeadline, int64(p.Now()), int64(p.Now().Sub(deadline)), 0)
		rq.Finish(int64(p.Now()), true)
	}
}

// write queues the request for the log disks and blocks until it is durable
// (or until the driver gives up: every log disk dead, the request's retry
// budget exhausted, its deadline passed, or — with QoS enabled — the log
// queue full; the error then wraps the blockdev sentinel).
func (d *Driver) write(p *sim.Proc, devIdx int, lba int64, count int, data []byte, opts blockdev.Options) error {
	if d.closed {
		return ErrClosed
	}
	if d.failed != nil {
		d.stats.Writes++
		d.stats.FailedWrites++
		return fmt.Errorf("trail %v write: %w", d.devIDs[devIdx], d.failed)
	}
	d.stats.Writes++
	pol := d.cfg.QoS
	deadline := pol.Deadline(p.Now(), opts.Deadline)
	if deadline != 0 && p.Now() >= deadline {
		d.stats.DeadlineExceeded++
		return fmt.Errorf("trail %v write: %w", d.devIDs[devIdx], blockdev.ErrDeadlineExceeded)
	}
	// Admission: shed when the log queue is at the class's bound.
	if bound := pol.ClassBound(opts.Class); bound > 0 && d.logQ.Len() >= bound {
		return d.shedWrite(p, devIdx, lba, count)
	}
	// Degradation: under log pressure, throttle foreground writes against
	// write-back progress instead of growing staging without bound.
	if err := d.throttleWrite(p, devIdx, lba, count, deadline); err != nil {
		return err
	}
	if d.failed != nil {
		d.stats.FailedWrites++
		return fmt.Errorf("trail %v write: %w", d.devIDs[devIdx], d.failed)
	}
	// Split requests larger than one record's capacity. Nearly every write
	// is a single chunk, awaited from the stack; only a split one spills.
	var single [1]*pendingWrite
	waits := single[:0]
	for off := 0; off < count; off += d.cfg.MaxBatchSectors {
		n := count - off
		if n > d.cfg.MaxBatchSectors {
			n = d.cfg.MaxBatchSectors
		}
		pw := d.free.writes.get()
		*pw = pendingWrite{
			devIdx:   devIdx,
			lba:      lba + int64(off),
			count:    n,
			data:     pack(&d.free.images, data[off*geom.SectorSize:(off+n)*geom.SectorSize]),
			queued:   p.Now(),
			deadline: deadline,
			class:    opts.Class,
		}
		pw.done.Init(d.env)
		if d.rec != nil {
			pw.qdepth = d.logQ.Len()
			pw.cursor = int64(pw.queued)
			pw.rq = d.rec.Start(span.KWrite, "trail", d.dataNames[devIdx], pw.lba, n, pw.cursor)
		}
		d.logQ.Push(pw)
		waits = append(waits, pw)
	}
	if n := d.logQ.Len(); n > d.stats.MaxLogQueue {
		d.stats.MaxLogQueue = n
	}
	d.tlLogQ.Set(float64(d.logQ.Len()), int64(p.Now()))
	d.logQCond.Signal()
	var firstErr error
	for _, pw := range waits {
		pw.done.Wait(p)
		if pw.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("trail %v write: %w", d.devIDs[devIdx], pw.err)
		}
		d.free.writes.put(pw) // its writer is awake: nothing else holds it
	}
	return firstErr
}

// read serves a read from the staging buffer when possible, otherwise from
// the data disk (with any staged sectors overlaid, since staged data is
// newer than the platter). The request's deadline and class ride into the
// data-disk scheduler; a retry never fires past the deadline. Either way the
// data lands in opts.Into when it holds count sectors.
func (d *Driver) read(p *sim.Proc, devIdx int, lba int64, count int, opts blockdev.Options) ([]byte, error) {
	if d.closed {
		return nil, ErrClosed
	}
	opts.Deadline = d.cfg.QoS.Deadline(p.Now(), opts.Deadline)
	// The newest staged extent holding the whole request makes the platter
	// irrelevant: serve it, with any newer overlapping extents laid on top.
	var spill [4]*bufEntry // room for the staged extents nearly every read overlaps
	over := d.stagedOver(spill[:0], devIdx, lba, count)
	for i := len(over) - 1; i >= 0; i-- {
		if e := over[i]; e.lba <= lba && e.lba+int64(e.count) >= lba+int64(count) {
			d.stats.ReadsFromStaging++
			d.recordStagingHit(p, devIdx, lba, count)
			out := opts.Buffer(count)
			if out == nil {
				out = make([]byte, count*geom.SectorSize)
			}
			overlay(out, lba, over[i:])
			return out, nil
		}
	}
	var rq *span.Req
	var cursor int64
	if d.rec != nil {
		cursor = int64(p.Now())
		rq = d.rec.Start(span.KRead, "trail", d.dataNames[devIdx], lba, count, cursor)
	}
	req := d.free.reads.get()
	defer d.free.reads.put(req) // runs once the result is taken
	*req = sched.Request{LBA: lba, Count: count, Data: opts.Buffer(count), Deadline: opts.Deadline, Class: opts.Class}
	q := d.dataQueues[devIdx]
	q.Submit(req)
	n, err := q.Serve(p, req, d.cfg.QoS.RetryBudget(opts.Class, maxReadRetries+1)-1, rq, cursor)
	d.stats.ReadRetries += int64(n)
	if err != nil {
		if blockdev.IsExpired(err) {
			d.stats.DeadlineExceeded++
		}
		return nil, fmt.Errorf("trail %v read: %w", d.devIDs[devIdx], err)
	}
	overlay(req.Data, lba, d.stagedOver(spill[:0], devIdx, lba, count))
	return req.Data, nil
}

// recordStagingHit records a read served from host memory: a zero-latency
// span tree whose single marker names the staging buffer as the source.
func (d *Driver) recordStagingHit(p *sim.Proc, devIdx int, lba int64, count int) {
	if d.rec == nil {
		return
	}
	now := int64(p.Now())
	rq := d.rec.Start(span.KRead, "trail", d.dataNames[devIdx], lba, count, now)
	rq.Point(span.PStaging, now, 0, 0)
	rq.Finish(now, false)
}

// stagedOver appends to over the staged extents of dev overlapping [lba,
// lba+count), oldest first: by stamp, whichever way the staging map iterates.
func (d *Driver) stagedOver(over []*bufEntry, devIdx int, lba int64, count int) []*bufEntry {
	for k, e := range d.staging {
		if k.dev == devIdx && k.lba < lba+int64(count) && k.lba+int64(e.count) > lba {
			over = append(over, e)
		}
	}
	slices.SortFunc(over, func(a, b *bufEntry) int { return cmp.Compare(a.stamp, b.stamp) })
	return over
}

// overlay expands into buf, which starts at lba, the parts of the extents in
// over inside it, in slice order: a later extent overwrites an earlier one.
func overlay(buf []byte, lba int64, over []*bufEntry) {
	end := lba + int64(len(buf)/geom.SectorSize)
	for _, e := range over {
		from, to := max(e.lba, lba), min(e.lba+int64(e.count), end)
		unpack(buf[(from-lba)*geom.SectorSize:(to-lba)*geom.SectorSize], e.data, e.count, int(from-e.lba))
	}
}

// tailTrack returns the log disk's current tail track (cyl, head, spt).
func (ld *logDisk) tailTrack() (cyl, head, spt int) {
	cyl, head = ld.g.TrackOf(UsableTrack(ld.g, ld.posIdx))
	return cyl, head, ld.g.SPTAt(cyl)
}

// refRead issues a one-sector read at the given sector of the tail track to
// establish or refresh the prediction reference point. A faulted read leaves
// the head model without one.
func (ld *logDisk) refRead(p *sim.Proc, sector int) disk.Result {
	cyl, head, _ := ld.tailTrack()
	lba := ld.g.TrackStartLBA(cyl, head) + int64(sector)
	res := ld.disk.Access(p, &disk.Request{LBA: lba, Count: 1, Data: ld.refBuf})
	if res.Err != nil {
		ld.head.faulted(res.End)
	} else {
		ld.head.completed(res.End, ld.g, geom.CHS{Cyl: cyl, Head: head, Sector: sector})
	}
	return res
}

// reestablishRef tries to get a valid prediction reference on ld, retrying
// the reference read at spread-out sectors of the tail track so a single bad
// sector cannot pin the writer. It returns false when the disk is beyond
// saving (device failure, or every attempt faulted), with the last error.
func (d *Driver) reestablishRef(p *sim.Proc, ld *logDisk) (bool, error) {
	_, _, spt := ld.tailTrack()
	var lastErr error
	for i := 0; i < maxRefReadAttempts; i++ {
		res := ld.refRead(p, (i*spt/maxRefReadAttempts)%spt)
		if res.Err == nil {
			return true, nil
		}
		lastErr = res.Err
		d.stats.LogRefRetries++
		if errors.Is(res.Err, blockdev.ErrDeviceFailed) {
			return false, res.Err
		}
	}
	return false, lastErr
}

// advanceTrack moves the log disk's tail to the next usable track: it waits
// for the track to be free, then repositions the head onto it with a
// one-sector read at the closest reachable sector, refreshing the
// prediction reference (paper §3.1/§5.1: reposition by issuing a read;
// typical cost ~1.5 ms).
func (d *Driver) advanceTrack(p *sim.Proc, ld *logDisk) {
	fromCyl, _, spt := ld.tailTrack()
	if ld.usedOnTail > 0 {
		d.stats.TrackUtilSum += float64(ld.usedOnTail) / float64(spt)
		d.stats.TrackUtilTracks++
	}
	next := (ld.posIdx + 1) % NumUsableTracks(ld.g)
	if next == len(ld.busyCount) {
		ld.busyCount = append(ld.busyCount, 0) // the tail reaches a new track
	}
	for ld.busyCount[next] > 0 {
		d.stats.LogFullStalls++
		ld.spaceFreed.Wait(p)
	}
	nextCyl, _ := ld.g.TrackOf(UsableTrack(ld.g, next))
	move := ld.head.moveCost(fromCyl, nextCyl)
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KTrackSwitch, Track: ld.name,
			A: int64(UsableTrack(ld.g, ld.posIdx)), B: int64(UsableTrack(ld.g, next))})
	}
	ld.posIdx = next
	ld.usedOnTail = 0

	cyl, head, nspt := ld.tailTrack()
	ld.trackUsed = slices.Grow(ld.trackUsed[:0], nspt)[:nspt]
	clear(ld.trackUsed)
	landing := ld.head.readSector(p.Now(), move, ld.g, cyl, head, repositionMargin)
	start := p.Now()
	ld.refRead(p, landing)
	ld.lastRepoStart, ld.lastRepoEnd = int64(start), int64(p.Now())
	d.stats.Repositions++
	d.stats.RepositionTime += p.Now().Sub(start)
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(start), Dur: int64(p.Now().Sub(start)),
			Kind: trace.KReposition, Track: ld.name, A: int64(landing)})
	}
}

// logWriterLoop is one log disk's writer process: it drains the shared log
// queue, batches requests, predicts the head position, and appends write
// records at the predicted sector of its disk's tail track. With several
// log disks, another writer keeps absorbing requests while this one
// repositions (§5.1's final optimization).
func (d *Driver) logWriterLoop(p *sim.Proc, ld *logDisk) {
	for {
		for d.logQ.Len() == 0 {
			ld.writerBusy = false
			d.maybeAllIdle()
			d.logQCond.Wait(p)
		}
		ld.writerBusy = true

		if !ld.head.valid {
			ok, err := d.reestablishRef(p, ld)
			if !ok {
				ld.writerBusy = false
				d.failLogDisk(ld, err)
				d.maybeAllIdle()
				return
			}
			continue // re-check the queue; another writer may have drained it
		}

		first := d.logQ.Live()[0]
		// A record needs a free run of 1 header + data sectors starting
		// at or rotationally after the predicted head position. If the
		// tail track has no such run, move to the next track.
		target, run, ok := d.chooseTarget(p.Now(), ld, 1+first.count)
		if !ok {
			d.advanceTrack(p, ld)
			continue
		}

		// Batch as many queued requests as fit in the free run at the
		// target (paper section 4.2).
		capacity := d.cfg.MaxBatchSectors
		if run-1 < capacity {
			capacity = run - 1
		}
		batch := d.takeBatch(p.Now(), capacity, ld.batch[:0])
		ld.batch = batch
		if len(batch) == 0 {
			continue // another writer took the queue first (or it expired)
		}
		if !d.writeRecord(p, ld, target, batch) && ld.dead {
			ld.writerBusy = false
			d.maybeAllIdle()
			return
		}

		_, _, spt := ld.tailTrack()
		if float64(ld.usedOnTail)/float64(spt) >= d.cfg.UtilizationThreshold {
			d.advanceTrack(p, ld)
		}
	}
}

// chooseTarget picks the landing sector for the next record on the log
// disk's tail track: the closest free run of at least need sectors starting
// at or rotationally after the predicted head position ("the next closest
// free sector on the current track", section 3.1). It returns the run
// length available at the target for batching, or ok=false if no run fits
// this track.
func (d *Driver) chooseTarget(now sim.Time, ld *logDisk, need int) (target, run int, ok bool) {
	cyl, head, spt := ld.tailTrack()
	predicted := ld.head.recordSector(now, ld.g, cyl, head, d.cfg.FixedDelta)
	// Walk sectors in rotational order from the predicted position,
	// looking for the first free run of >= need sectors that does not
	// cross the end of the track (records are LBA-contiguous).
	for off := 0; off < spt; off++ {
		s := (predicted + off) % spt
		if s+need > spt || ld.trackUsed[s] {
			continue
		}
		n := 0
		for s+n < spt && !ld.trackUsed[s+n] {
			n++
		}
		if n >= need {
			return s, n, true
		}
		// Run too short; skip past it.
		off += n
	}
	return 0, 0, false
}

// expireWrite completes a pending write with ErrDeadlineExceeded: its
// deadline passed while it waited for a log writer, so logging it now would
// only occupy the disk for a client that has given up.
func (d *Driver) expireWrite(now sim.Time, pw *pendingWrite) {
	d.stats.DeadlineExceeded++
	pw.err = fmt.Errorf("queued past deadline: %w", blockdev.ErrDeadlineExceeded)
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(now), Kind: trace.KDeadline, Track: "trail",
			LBA: pw.lba, Count: pw.count, B: 1})
	}
	if pw.rq != nil {
		pw.rq.ChildAB(span.PQueue, pw.cursor, int64(now), int64(pw.qdepth), 0)
		pw.rq.Point(span.PDeadline, int64(now), int64(now.Sub(pw.deadline)), 0)
		pw.rq.Finish(int64(now), true)
	}
	pw.done.Trigger()
}

// expired reports whether pw's deadline has passed at now.
func (pw *pendingWrite) expired(now sim.Time) bool {
	return pw.deadline != 0 && now >= pw.deadline
}

// takeBatch appends up to capacity data sectors' worth of requests from the
// log queue to batch (at least the first request, if any remain). Requests
// whose deadline passed while queued are completed with ErrDeadlineExceeded
// and never reach the log disk.
func (d *Driver) takeBatch(now sim.Time, capacity int, batch []*pendingWrite) []*pendingWrite {
	total := 0
	for d.logQ.Len() > 0 {
		nxt := d.logQ.Live()[0]
		if nxt.expired(now) {
			d.logQ.Pop()
			d.expireWrite(now, nxt)
			continue
		}
		if len(batch) > 0 && total+nxt.count > capacity {
			break
		}
		batch = append(batch, d.logQ.Pop())
		total += nxt.count
	}
	d.tlLogQ.Set(float64(d.logQ.Len()), int64(now))
	return batch
}

// attributeDispatch closes the span-attribution gap between pw's frontier
// and the moment its serving log command reached the media (dispatch): the
// wait is queue time, except the portion overlapping the log disk's latest
// track reposition, which is carved out as a track-switch stall. Advances
// pw.cursor to dispatch.
func (d *Driver) attributeDispatch(pw *pendingWrite, ld *logDisk, dispatch int64) {
	if pw.rq == nil {
		pw.cursor = dispatch
		return
	}
	depth := int64(pw.qdepth)
	from, to := max(pw.cursor, ld.lastRepoStart), min(dispatch, ld.lastRepoEnd)
	if from < to {
		pw.rq.ChildAB(span.PQueue, pw.cursor, from, depth, 0)
		pw.rq.ChildAB(span.PTrackSwitch, from, to, int64(ld.idx), 0)
		pw.rq.ChildAB(span.PQueue, to, dispatch, depth, 0)
	} else {
		pw.rq.ChildAB(span.PQueue, pw.cursor, dispatch, depth, 0)
	}
	pw.cursor = dispatch
}

// writeRecord appends one write record holding batch at the target sector
// of the log disk's tail track, updates the prediction reference, and
// stages the blocks for write-back. On a fault it requeues (or fails) the
// batch and reports false; partially persisted record sectors are harmless —
// the record CRC cannot validate, so recovery skips them, and a retried
// record gets a fresh seq with the same PrevSect.
func (d *Driver) writeRecord(p *sim.Proc, ld *logDisk, target int, batch []*pendingWrite) bool {
	cyl, head, _ := ld.tailTrack()
	headerLBA := ld.g.TrackStartLBA(cyl, head) + int64(target)

	// Each image is expanded once, into this log disk's record buffer; only
	// this writer touches it and disk.Access does not keep it, so it is reused.
	img, blocks := ld.img[:geom.SectorSize], ld.blocks[:0]
	for _, pw := range batch {
		img = img[:len(img)+pw.count*geom.SectorSize]
		unpack(img[len(img)-pw.count*geom.SectorSize:], pw.data, pw.count, 0)
		for i := 0; i < pw.count; i++ {
			blocks = append(blocks, BlockRef{
				Dev:     d.devIDs[pw.devIdx],
				DataLBA: pw.lba + int64(i),
			})
		}
	}
	ld.img, ld.blocks = img, blocks
	total := len(blocks)

	d.seq++
	hdr := RecordHeader{
		Epoch:     d.epoch,
		Seq:       d.seq,
		HeaderLBA: headerLBA,
		PrevSect:  ld.lastRecordLBA,
		LogHead:   headerLBA,
		Blocks:    blocks,
	}
	if oldest := ld.oldestOutstanding(); oldest != nil {
		hdr.LogHead = oldest.headerLBA
	}
	if err := sealRecord(&hdr, img); err != nil {
		panic(fmt.Sprintf("trail: building record: %v", err))
	}

	var mediaStart sim.Time
	if d.tr != nil {
		mediaStart = ld.head.mediaStart(p.Now())
	}
	res := ld.disk.Access(p, &disk.Request{Write: true, LBA: headerLBA, Count: 1 + total, Data: img})
	d.lastActivity = res.End
	if res.Err != nil {
		ld.head.faulted(res.End)
		d.handleLogWriteFault(ld, target, batch, res)
		return false
	}
	if d.tr != nil {
		// Prediction audit: the driver scores its landing from the
		// completion time alone, as a SCSI target reports it.
		spt := ld.g.SPTAt(cyl)
		wait, slack := ld.head.score(mediaStart, res.End, spt, 1+total)
		d.tr.Emit(trace.Event{At: int64(mediaStart), Kind: trace.KPredict, Track: ld.name,
			LBA: int64(target), Count: spt, A: int64(slack), B: int64(wait)})
	}
	ld.head.completed(res.End, ld.g, geom.CHS{Cyl: cyl, Head: head, Sector: target + total})

	rec := d.free.records.get()
	*rec = record{
		seq:       hdr.Seq,
		headerLBA: headerLBA,
		log:       ld,
		trackIdx:  ld.posIdx,
		blocks:    total,
	}
	ld.outstanding.Push(rec)
	ld.busyCount[ld.posIdx]++
	ld.lastRecordLBA = headerLBA
	for s := target; s < target+1+total; s++ {
		ld.trackUsed[s] = true
	}
	ld.usedOnTail += 1 + total
	d.stats.Records++
	d.stats.LoggedSectors += int64(total)

	// The write is durable: release the clients, then stage the blocks
	// for asynchronous write-back.
	for _, pw := range batch {
		if pw.rq != nil {
			d.attributeDispatch(pw, ld, int64(res.Start))
			pw.rq.Command(&res, ld.head.rotPeriod)
			pw.rq.Finish(int64(res.End), false)
		}
		d.stage(pw, rec)
		// The client write is about to be acknowledged as durable: the
		// central interesting event for crash exploration.
		d.env.EmitProbe(p, sim.ProbeAck, d.probeNames[pw.devIdx], pw.lba, pw.count)
		pw.done.Trigger()
	}
	return true
}

// handleLogWriteFault classifies a failed record write and disposes of its
// batch.
func (d *Driver) handleLogWriteFault(ld *logDisk, target int, batch []*pendingWrite, res disk.Result) {
	for _, pw := range batch {
		if pw.rq != nil {
			d.attributeDispatch(pw, ld, int64(res.Start))
			pw.rq.ChildAB(span.PRetry, int64(res.Start), int64(res.End), int64(pw.retries+1), 0)
			pw.cursor = int64(res.End)
		}
	}
	err := res.Err
	switch {
	case errors.Is(err, blockdev.ErrDeviceFailed):
		d.requeueOrFail(batch, err)
		d.failLogDisk(ld, err)
		return
	case errors.Is(err, blockdev.ErrMediaError):
		// Burn the run up to and including the failing sector so the
		// allocator never lands a record there again. Sectors before the
		// fault hold a torn record image that recovery's CRC check skips.
		d.stats.LogMediaErrors++
		_, _, spt := ld.tailTrack()
		for s := target; s <= target+res.Transferred && s < spt; s++ {
			if !ld.trackUsed[s] {
				ld.trackUsed[s] = true
				ld.usedOnTail++
			}
		}
	default: // transient timeout
		d.stats.LogWriteRetries++
	}
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(res.End), Kind: trace.KRetry, Track: ld.name,
			Count: len(batch), A: int64(target)})
	}
	d.requeueOrFail(batch, err)
}

// requeueOrFail puts the batch back at the head of the log queue for another
// attempt, failing any request whose per-class retry budget is spent, whose
// deadline has passed (a retry never fires past its deadline), or everything,
// once the driver itself has failed. Requeued requests keep their order so
// overwrite ordering is preserved.
func (d *Driver) requeueOrFail(batch []*pendingWrite, cause error) {
	now := d.env.Now()
	var retry []*pendingWrite
	for _, pw := range batch {
		pw.retries++
		if pw.expired(now) && d.failed == nil {
			d.expireWrite(now, pw)
			continue
		}
		budget := d.cfg.QoS.RetryBudget(pw.class, maxWriteRetries)
		if d.failed != nil || pw.retries > budget {
			pw.err = fmt.Errorf("after %d attempts: %w", pw.retries, cause)
			d.stats.FailedWrites++
			d.finishFailed(pw)
			pw.done.Trigger()
			continue
		}
		retry = append(retry, pw)
	}
	if len(retry) > 0 {
		d.logQ.Reset(append(retry, d.logQ.Live()...))
		d.logQCond.Broadcast()
	}
}

// finishFailed closes a failed pending write's span tree: whatever time
// remains beyond the last recorded retry is queue wait (e.g. the reference
// re-establishment attempts after the final fault), then the tree ends in
// error at the instant the client is released.
func (d *Driver) finishFailed(pw *pendingWrite) {
	if pw.rq == nil {
		return
	}
	now := int64(d.env.Now())
	pw.rq.ChildAB(span.PQueue, pw.cursor, now, int64(pw.qdepth), 0)
	pw.rq.Finish(now, true)
}

// failLogDisk marks ld permanently dead. When it was the last live log disk
// the driver fails as a whole: queued and future writes surface the error
// rather than waiting forever for a writer that no longer exists.
func (d *Driver) failLogDisk(ld *logDisk, err error) {
	if ld.dead {
		return
	}
	ld.dead = true
	d.stats.LogDiskFailures++
	for _, other := range d.logs {
		if !other.dead {
			d.logQCond.Broadcast() // surviving writers pick up the queue
			return
		}
	}
	if err == nil {
		err = blockdev.ErrDeviceFailed
	}
	d.failed = fmt.Errorf("all log disks failed: %w", err)
	for _, pw := range d.logQ.Live() {
		pw.err = d.failed
		d.stats.FailedWrites++
		d.finishFailed(pw)
		pw.done.Trigger()
	}
	d.logQ.Reset(nil)
	d.allIdleCond.Broadcast()
}

// idleLoop periodically refreshes the prediction reference points while the
// log disks are idle, so that predictions stay accurate across long idle
// periods (relevant when the drive has rotational drift).
func (d *Driver) idleLoop(p *sim.Proc) {
	for {
		p.Sleep(d.cfg.IdleReposition)
		if d.closed {
			return
		}
		if d.logQ.Len() > 0 {
			continue
		}
		busy := false
		for _, ld := range d.logs {
			if ld.writerBusy {
				busy = true
				break
			}
		}
		if busy || p.Now().Sub(d.lastActivity) < d.cfg.IdleReposition {
			continue
		}
		// Refresh each disk: read one sector just ahead of the predicted
		// position on the tail track (harmless to the free region; reads
		// do not disturb data). Dead disks are skipped; a faulted refresh
		// is not counted (the writer re-establishes the reference itself).
		for _, ld := range d.logs {
			if ld.dead {
				continue
			}
			cyl, head, _ := ld.tailTrack()
			sector := ld.head.readSector(p.Now(), 0, ld.g, cyl, head, safetySectors)
			if res := ld.refRead(p, sector); res.Err == nil {
				d.stats.IdleRefreshes++
				if d.tr != nil {
					d.tr.Emit(trace.Event{At: int64(res.Start), Dur: int64(res.End.Sub(res.Start)),
						Kind: trace.KIdleRefresh, Track: ld.name, A: int64(sector)})
				}
			}
		}
		d.lastActivity = p.Now()
	}
}

// maybeAllIdle wakes Shutdown waiters when everything has drained.
func (d *Driver) maybeAllIdle() {
	if d.drained() {
		d.allIdleCond.Broadcast()
	}
}

// drained reports whether all queues, writers and records are idle. A log
// disk with outstanding records has one not yet committed: commitRef pops
// committed records off the head, so the head never is.
func (d *Driver) drained() bool {
	if d.logQ.Len() > 0 {
		return false
	}
	for _, ld := range d.logs {
		if ld.writerBusy || ld.outstanding.Len() > 0 {
			return false
		}
	}
	return true
}

// PowerCut lets go of what a power cut destroys — the staging buffer, the
// free lists and slabs, the queues and the write-back windows are host
// memory — so the staged blocks are collectable while recovery builds the
// next world: nothing the driver keeps points into a slab any more, and a
// slab chunk pins every image its entries or writes hold. Call it once the
// environment is closed: the driver refuses I/O afterwards, its Stats stay
// readable.
func (d *Driver) PowerCut() {
	d.closed = true
	d.staging, d.stagedBytes = nil, 0
	d.free = recycled{}
	d.logQ.Reset(nil)
	d.wbQueues, d.windows = nil, nil
	for _, ld := range d.logs {
		ld.batch = nil
	}
}

// Shutdown drains all pending log writes and write-backs, then marks every
// log disk cleanly shut down. The driver must not be used afterwards.
func (d *Driver) Shutdown(p *sim.Proc) error {
	if d.closed {
		return ErrClosed
	}
	for !d.drained() {
		d.allIdleCond.Wait(p)
	}
	d.closed = true
	for _, ld := range d.logs {
		hdr := &DiskHeader{Epoch: d.epoch, CleanShutdown: true, Geom: *ld.g}
		if err := writeHeaderAll(ld.disk, hdr); err != nil {
			return err
		}
	}
	return nil
}
