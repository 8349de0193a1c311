// Package disk implements a deterministic rotational disk drive model on the
// sim virtual clock.
//
// The model reproduces the mechanical behaviour Trail exploits: a shared
// spindle whose rotational phase is a pure function of virtual time, a seek
// curve, head-switch delays, fixed per-command processing overhead, a
// write-after-command turnaround penalty, and sector-granular media
// persistence (so a crash mid-transfer leaves a torn record, exactly what
// Trail's self-describing log format must tolerate).
//
// Drivers interact with the drive the way a kernel driver does through SCSI
// or IDE: they submit a read or write for a contiguous LBA range and block
// until the command completes. Nothing exposes the instantaneous head
// position — the Trail driver must *predict* it, and a misprediction costs a
// near-full rotation here just as it does on hardware.
package disk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Params describes a drive's mechanics. Use ST41601N or WDCaviar for the
// paper's drives, or build custom parameters for ablations.
type Params struct {
	// Name identifies the drive model in stats and errors.
	Name string
	// RPM is the spindle speed.
	RPM int
	// Geom is the physical layout.
	Geom geom.Geometry
	// SeekT2T, SeekAvg and SeekMax calibrate the seek-time curve at
	// distance 1, one-third stroke and full stroke.
	SeekT2T, SeekAvg, SeekMax time.Duration
	// HeadSwitch is the time to activate a different head on the same
	// cylinder.
	HeadSwitch time.Duration
	// ReadOverhead and WriteOverhead are the fixed command processing
	// costs (host driver, controller, on-disk firmware) per command.
	ReadOverhead, WriteOverhead time.Duration
	// WriteSettle is the extra head-settle time before a write may start.
	WriteSettle time.Duration
	// WriteTurnaround delays a write command that arrives hot on the heels
	// of a previous command: the write cannot start at the media until
	// WriteTurnaround after the previous command completed. The paper
	// calls this the "write-after-write command delay".
	WriteTurnaround time.Duration
	// DriftPPM skews the actual spindle speed from the nominal RPM by
	// parts per million. Drivers predict with the nominal rotation period,
	// so a non-zero drift makes head-position predictions decay over idle
	// time — the deviation the paper's periodic repositioning guards
	// against ("because of the deviation in the disk rotation speed ...
	// the predictions will go awry after a long period of disk idle
	// time", section 3.1).
	DriftPPM int64
	// SeekDeratePPM slows the actual arm relative to the spec-sheet seek
	// curve by parts per million (500000 = 50% slower). Like DriftPPM it
	// models mechanics diverging from the published numbers: drivers keep
	// predicting positioning cost from SeekT2T/SeekAvg, so a derated arm
	// lands late on every track switch and pays a near-full extra rotation
	// per misprediction. This is the perturbation knob the rundiff
	// walkthrough uses to manufacture an explainable regression.
	SeekDeratePPM int64
}

// Validate reports whether the parameters are usable.
func (p *Params) Validate() error {
	if p.RPM <= 0 {
		return fmt.Errorf("disk %s: RPM %d", p.Name, p.RPM)
	}
	if err := p.Geom.Validate(); err != nil {
		return fmt.Errorf("disk %s: %w", p.Name, err)
	}
	if p.SeekT2T <= 0 || p.SeekAvg < p.SeekT2T || p.SeekMax < p.SeekAvg {
		return fmt.Errorf("disk %s: seek curve %v/%v/%v not increasing", p.Name, p.SeekT2T, p.SeekAvg, p.SeekMax)
	}
	return nil
}

// RotPeriod returns the time of one revolution.
func (p Params) RotPeriod() time.Duration {
	return time.Duration(int64(time.Minute) / int64(p.RPM))
}

// SectorTime returns the media transfer time of one sector at the given
// cylinder.
func (p Params) SectorTime(cyl int) time.Duration {
	return p.RotPeriod() / time.Duration(p.Geom.SPTAt(cyl))
}

// ST41601N returns parameters for the paper's log disk: a Seagate 5400-RPM
// SCSI drive, 1.37 GB, 35,717 tracks (2101 cylinders x 17 heads), 1.7 ms
// track-to-track seek. Fixed write-command overhead is calibrated so a
// one-sector Trail record write costs ~1.4 ms as measured in §5.1.
func ST41601N() Params {
	return Params{
		Name: "ST41601N",
		RPM:  5400,
		Geom: geom.Geometry{
			Cylinders: 2101,
			Heads:     17,
			Zones: []geom.Zone{
				{StartCyl: 0, EndCyl: 699, SPT: 84},
				{StartCyl: 700, EndCyl: 1400, SPT: 75},
				{StartCyl: 1401, EndCyl: 2100, SPT: 66},
			},
			TrackSkew: 6,
			CylSkew:   12,
		},
		SeekT2T:         1700 * time.Microsecond,
		SeekAvg:         11 * time.Millisecond,
		SeekMax:         22 * time.Millisecond,
		HeadSwitch:      800 * time.Microsecond,
		ReadOverhead:    550 * time.Microsecond,
		WriteOverhead:   950 * time.Microsecond,
		WriteSettle:     150 * time.Microsecond,
		WriteTurnaround: 1 * time.Millisecond,
	}
}

// WDCaviar returns parameters for the paper's data disks: Western Digital
// 5400-RPM IDE drives, ~10 GB, 2 ms track-to-track seek, ~102,000 tracks.
func WDCaviar() Params {
	return Params{
		Name: "WDCaviar",
		RPM:  5400,
		Geom: geom.Geometry{
			Cylinders: 25500,
			Heads:     4,
			Zones: []geom.Zone{
				{StartCyl: 0, EndCyl: 8499, SPT: 210},
				{StartCyl: 8500, EndCyl: 16999, SPT: 190},
				{StartCyl: 17000, EndCyl: 25499, SPT: 170},
			},
			TrackSkew: 18,
			CylSkew:   36,
		},
		SeekT2T:         2 * time.Millisecond,
		SeekAvg:         12 * time.Millisecond,
		SeekMax:         24 * time.Millisecond,
		HeadSwitch:      1 * time.Millisecond,
		ReadOverhead:    400 * time.Microsecond,
		WriteOverhead:   900 * time.Microsecond,
		WriteSettle:     200 * time.Microsecond,
		WriteTurnaround: 1 * time.Millisecond,
	}
}

// Small returns parameters for a small, fast drive: 12 cylinders x 2 heads x
// 60 sectors (24 tracks), 10 ms a revolution, the paper drives' timings
// scaled down. Tests and crash explorations use it as a Trail log disk, and
// with geom.Uniform(100, 2, 60) as a data disk, so that recovery's track
// scans and whole-drive walks stay short; each renames it.
func Small() Params {
	g := geom.Uniform(12, 2, 60)
	g.TrackSkew, g.CylSkew = 4, 8
	return Params{
		Name: "small", RPM: 6000, Geom: g,
		SeekT2T: 800 * time.Microsecond, SeekAvg: 4 * time.Millisecond, SeekMax: 8 * time.Millisecond,
		HeadSwitch: 400 * time.Microsecond, ReadOverhead: 200 * time.Microsecond,
		WriteOverhead: 500 * time.Microsecond, WriteSettle: 100 * time.Microsecond,
		WriteTurnaround: 600 * time.Microsecond,
	}
}

// Request is one disk command: a read or write of Count contiguous sectors
// starting at LBA. For writes, Data must hold Count*512 bytes; for reads,
// Data is filled in by Access (allocated if nil).
type Request struct {
	Write bool
	LBA   int64
	Count int
	Data  []byte
}

// Phase is one mechanical phase of a command. The phases are numbered in
// service order, the order a command pays them in; Result.Phases, the
// phases' trace event kinds and their timeline lane states all follow it.
type Phase int

const (
	Turnaround Phase = iota // write-after-command turnaround delay
	Overhead                // fixed command processing overhead
	Seek                    // arm travel
	HeadSwitch              // activating the head of another surface
	Settle                  // write settle
	RotWait                 // rotational latency
	Transfer                // media transfer
	NumPhases
)

// phases gives each phase its trace event kind and its timeline lane-state
// name.
var phases = [NumPhases]struct {
	kind trace.Kind
	lane string
}{
	Turnaround: {trace.KTurnaround, "turnaround"},
	Overhead:   {trace.KOverhead, "overhead"},
	Seek:       {trace.KSeek, "seek"},
	HeadSwitch: {trace.KHeadSwitch, "head_switch"},
	Settle:     {trace.KSettle, "settle"},
	RotWait:    {trace.KRotWait, "rotate_wait"},
	Transfer:   {trace.KTransfer, "transfer"},
}

// Result reports when a command ran and where its time went.
type Result struct {
	Start, End sim.Time
	// Phases holds the time spent in each mechanical phase. They sum to
	// End-Start, except that a whole-command fault's discovery delay is in
	// no phase.
	Phases [NumPhases]time.Duration
	// Err is non-nil when the command failed (fault injection): it wraps one
	// of the blockdev sentinel errors (ErrMediaError, ErrTimeout,
	// ErrDeviceFailed), classified via errors.Is. Timing fields still
	// account for the virtual time the failed command occupied the drive.
	Err error
	// Transferred counts the sectors fully transferred before a failure
	// (== Count on success). For a media error, Transferred also indexes the
	// failing sector: its LBA is request LBA + Transferred.
	Transferred int
}

// Latency returns the command's total service time.
func (r Result) Latency() time.Duration { return r.End.Sub(r.Start) }

// Stats aggregates drive activity, used for the paper's "disk I/O time"
// accounting.
type Stats struct {
	Reads, Writes               int64
	SectorsRead, SectorsWritten int64
	Busy                        time.Duration
	SeekTime, RotateTime        time.Duration
	TransferTime                time.Duration
	// Errors counts commands that completed with a fault.
	Errors int64
}

// CommandFault is an injector's verdict on a whole command, taken before any
// media transfer.
type CommandFault struct {
	// Err aborts the command when non-nil (wrapping a blockdev sentinel).
	Err error
	// Delay is the virtual time the drive spends discovering the fault (a
	// timeout's expiry, a dead controller's bus settle). Only used when Err
	// is non-nil.
	Delay time.Duration
}

// Injector lets a fault plan intercept drive commands (see internal/fault).
// The drive consults it once per command and once per sector transferred; a
// nil injector means a fault-free drive. Implementations must be
// deterministic functions of (virtual time, command history) so simulations
// stay bit-reproducible.
type Injector interface {
	// CommandFault is consulted when the command reaches the drive (after
	// queueing, before any positioning).
	CommandFault(now sim.Time, write bool, lba int64, count int) CommandFault
	// SectorFault is consulted as the head passes each sector; a non-nil
	// error (wrapping blockdev.ErrMediaError) aborts the command there. For
	// writes, the failing sector is not persisted; earlier ones are.
	SectorFault(now sim.Time, write bool, lba int64) error
	// SectorWritten reports a successfully persisted sector, letting the
	// plan model write-heals of latent read errors (sector remapping).
	SectorWritten(lba int64)
	// Clone returns an injector in the same state that shares nothing with
	// this one: faults are device state, so a cloned drive carries its own.
	Clone() Injector
}

// Disk is a simulated drive. Create with New; all methods must be called
// from simulated processes of the bound environment (except the Media*
// helpers, which are timeless test/recovery-verification accessors).
type Disk struct {
	params Params
	env    *sim.Env
	arm    *sim.Resource

	armCyl, armHead int
	lastCmdEnd      sim.Time

	rotPeriod time.Duration
	// seek curve coefficients over sqrt(d) basis; derived by fitSeekCurve
	// from the calibration points in params.
	seekA, seekB, seekC float64

	media sectorStore
	stats Stats
	inj   Injector

	// tr, when non-nil, receives per-phase service-time events; trName is
	// the trace track this drive reports under.
	tr     *trace.Tracer
	trName string

	// lane, when non-nil, charges every instant of drive time to exactly
	// one mechanical state on the utilization timeline.
	lane *timeline.Lane
}

// Timeline lane states, in the order registered by SetTimeline. Lane states
// tile the drive's virtual time exactly: at any instant the drive is idle,
// discovering a fault, or in one mechanical phase of the current command.
// Phase ph's state is laneFirstPhase+ph.
const (
	laneIdle = iota
	laneFault
	laneFirstPhase
)

// laneStates names the lane states for the timeline export.
var laneStates = func() []string {
	s := []string{"idle", "fault"}
	for _, ph := range phases {
		s = append(s, ph.lane)
	}
	return s
}()

// New returns a drive with the given parameters bound to env. It panics on
// invalid parameters (a construction bug, not a runtime condition).
func New(env *sim.Env, params Params) *Disk {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	rot := params.RotPeriod()
	if params.DriftPPM != 0 {
		rot = time.Duration(int64(rot) + int64(rot)*params.DriftPPM/1_000_000)
	}
	d := &Disk{
		params:    params,
		env:       env,
		arm:       sim.NewResource(env, 1),
		rotPeriod: rot,
		media:     newSectorStore(),
	}
	d.fitSeekCurve()
	return d
}

// Params returns the drive parameters.
func (d *Disk) Params() Params { return d.params }

// SetSeekDeratePPM changes the arm derate mid-run. SeekTime reads the knob
// on every command, so the new value takes effect at the next seek — this is
// how the cluster's slowshard chaos scenario degrades a shard that is
// already serving traffic without rebuilding the world.
func (d *Disk) SetSeekDeratePPM(ppm int64) { d.params.SeekDeratePPM = ppm }

// Geom returns the drive geometry.
func (d *Disk) Geom() *geom.Geometry { return &d.params.Geom }

// Stats returns a copy of the accumulated activity counters.
func (d *Disk) Stats() Stats { return d.stats }

// SetInjector attaches (or with nil, detaches) a fault injector. Injected
// faults are media/device state, so like media contents they survive
// Reattach across a simulated crash.
func (d *Disk) SetInjector(inj Injector) { d.inj = inj }

// Injector returns the attached fault injector (nil for a fault-free drive).
func (d *Disk) Injector() Injector { return d.inj }

// SetTracer attaches the drive to a tracer under the given track name (nil
// detaches). The drive emits one event per service-time phase of every
// command; nothing flows from the tracer back to the drive.
func (d *Disk) SetTracer(tr *trace.Tracer, name string) {
	d.tr = tr
	d.trName = name
}

// SetTimeline attaches the drive to a utilization-timeline aggregator under
// the given component track, registering one occupancy lane whose states
// (idle/fault/turnaround/overhead/seek/head_switch/settle/rotate_wait/
// transfer) tile the drive's virtual time exactly. A nil aggregator leaves
// the drive without a lane (all charging is a no-op). Call once per
// aggregator, before the run.
func (d *Disk) SetTimeline(a *timeline.Aggregator, name string) {
	d.lane = a.Lane("disk", name, laneStates)
}

// Reattach rebinds the drive to a fresh environment after a simulated crash
// and reboot. Media contents survive; arm position is arbitrary (we keep it)
// and any in-flight command is lost, exactly like a power cut.
func (d *Disk) Reattach(env *sim.Env) {
	d.env = env
	d.arm = sim.NewResource(env, 1)
	d.lastCmdEnd = 0
}

// Clone returns a drive in this one's state that shares nothing with it: the
// media, arm position and last-command time, parameters (seek derate
// included), counters and a clone of the injector. That is everything a
// power cut leaves behind, so recovering the clone is recovering this drive
// as it stands now. The clone is bound to the same environment with an idle
// arm of its own (Reattach moves it); no tracer or timeline lane is carried
// over.
func (d *Disk) Clone() *Disk {
	c := New(d.env, d.params)
	c.armCyl, c.armHead, c.lastCmdEnd = d.armCyl, d.armHead, d.lastCmdEnd
	c.media, c.stats = d.media.clone(), d.stats
	if d.inj != nil {
		c.inj = d.inj.Clone()
	}
	return c
}

// Digest fingerprints the media: the FNV-64a of every sector the drive holds,
// in LBA order, each as its LBA (8 bytes, little-endian) and its 512 bytes.
// Two drives holding the same sectors digest alike, however the store laid
// them out.
func (d *Disk) Digest() uint64 {
	keys := make([]int64, 0, len(d.media.groups))
	for key := range d.media.groups {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	var sec [8 + geom.SectorSize]byte
	for _, key := range keys {
		for i, at := range d.media.groups[key] {
			if at&present != 0 {
				binary.LittleEndian.PutUint64(sec[:8], uint64(key*groupSectors+int64(i)))
				clear(sec[8+copy(sec[8:], d.media.bytes(at)):])
				h.Write(sec[:])
			}
		}
	}
	return h.Sum64()
}

// fitSeekCurve solves t(d) = a + b*sqrt(d) + c*d through the three calibration
// points (1, T2T), (C/3, Avg), (C-1, Max).
func (d *Disk) fitSeekCurve() {
	c := d.params.Geom.Cylinders
	x1, y1 := 1.0, float64(d.params.SeekT2T)
	x2, y2 := float64(c)/3, float64(d.params.SeekAvg)
	x3, y3 := float64(c-1), float64(d.params.SeekMax)
	// Gaussian elimination on the 3x3 system in (a, b, c).
	m := [3][4]float64{
		{1, math.Sqrt(x1), x1, y1},
		{1, math.Sqrt(x2), x2, y2},
		{1, math.Sqrt(x3), x3, y3},
	}
	for col := 0; col < 3; col++ {
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < 3; r++ {
			if r == col || m[col][col] == 0 {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k < 4; k++ {
				m[r][k] -= float64(f * m[col][k]) // rounded: never fused (see SeekTime)
			}
		}
	}
	d.seekA = m[0][3] / m[0][0]
	d.seekB = m[1][3] / m[1][1]
	d.seekC = m[2][3] / m[2][2]
}

// SeekTime returns the actual arm travel time across dist cylinders,
// including any SeekDeratePPM slowdown. Drivers estimating positioning cost
// must compute from the Params spec fields, not from here — the gap between
// the two is exactly the misprediction the derate models.
func (d *Disk) SeekTime(dist int) time.Duration {
	if dist <= 0 {
		return 0
	}
	t := float64(d.params.SeekT2T)
	if dist > 1 {
		x := float64(dist)
		// Each product is rounded before it is added, so no platform
		// fuses a multiply-add here and the curve is the same bits on all.
		t = d.seekA + float64(d.seekB*math.Sqrt(x)) + float64(d.seekC*x)
		if t < float64(d.params.SeekT2T) {
			t = float64(d.params.SeekT2T)
		}
	}
	if d.params.SeekDeratePPM != 0 {
		t += t * float64(d.params.SeekDeratePPM) / 1e6
	}
	return time.Duration(t)
}

// rotateWait returns how long from time t until the platter reaches angle,
// a fraction of a revolution: the platter is at angle 0 at every multiple of
// the rotation period.
func (d *Disk) rotateWait(t sim.Time, angle float64) time.Duration {
	rp := int64(d.rotPeriod)
	diff := angle - float64(int64(t)%rp)/float64(rp)
	if diff < 0 {
		diff++
	}
	return time.Duration(diff * float64(d.rotPeriod))
}

// Access executes one command, blocking p for its full service time, and
// returns the timing breakdown. Commands are serialized on the arm in FIFO
// order; request scheduling policy belongs to the layer above.
func (d *Disk) Access(p *sim.Proc, req *Request) Result {
	if req.Count <= 0 {
		panic(fmt.Sprintf("disk %s: Access with count %d", d.params.Name, req.Count))
	}
	if req.LBA < 0 || req.LBA+int64(req.Count) > d.params.Geom.TotalSectors() {
		panic(fmt.Sprintf("disk %s: Access [%d,+%d) outside drive", d.params.Name, req.LBA, req.Count))
	}
	if req.Write && len(req.Data) < req.Count*geom.SectorSize {
		panic(fmt.Sprintf("disk %s: write of %d sectors with %d data bytes", d.params.Name, req.Count, len(req.Data)))
	}
	if !req.Write && req.Data == nil {
		req.Data = make([]byte, req.Count*geom.SectorSize)
	}

	d.arm.Acquire(p)
	defer d.arm.Release()

	var res Result
	res.Start = p.Now()

	// Whole-command faults: a dead device or a transient timeout aborts the
	// command before the media phase, after charging the discovery delay.
	if d.inj != nil {
		if f := d.inj.CommandFault(p.Now(), req.Write, req.LBA, req.Count); f.Err != nil {
			if f.Delay > 0 {
				d.lane.Enter(laneFault, int64(p.Now()))
				p.Sleep(f.Delay)
			}
			res.Err = fmt.Errorf("disk %s: %w", d.params.Name, f.Err)
			d.finish(p, req, &res)
			if d.tr != nil {
				d.tr.Emit(trace.Event{At: int64(res.Start), Dur: int64(res.Latency()), Kind: trace.KFault,
					Track: d.trName, LBA: req.LBA, Count: req.Count, B: writeFlag(req.Write)})
			}
			return res
		}
	}

	// Write turnaround: the drive cannot begin processing a write until
	// WriteTurnaround after the previous command completed.
	if req.Write && d.lastCmdEnd > 0 {
		if earliest := d.lastCmdEnd.Add(d.params.WriteTurnaround); p.Now() < earliest {
			d.step(p, req, &res, Turnaround, earliest.Sub(p.Now()))
		}
	}

	// Fixed command processing overhead.
	overhead := d.params.ReadOverhead
	if req.Write {
		overhead = d.params.WriteOverhead
	}
	d.step(p, req, &res, Overhead, overhead)

	// Media phase: walk the contiguous LBA range one track extent at a
	// time. Each extent is positioned (seek + head switch + settle +
	// rotation) and then transferred sector by sector so that a crash
	// mid-transfer tears the record at a sector boundary.
	g := &d.params.Geom
	lba := req.LBA
	remaining := req.Count
	buf := req.Data
	for remaining > 0 {
		a := g.ToCHS(lba)
		spt := g.SPTAt(a.Cyl)
		extent := spt - a.Sector
		if extent > remaining {
			extent = remaining
		}

		if a.Cyl != d.armCyl {
			dist := a.Cyl - d.armCyl
			if dist < 0 {
				dist = -dist
			}
			d.step(p, req, &res, Seek, d.SeekTime(dist))
			d.armCyl = a.Cyl
		}
		if a.Head != d.armHead {
			d.step(p, req, &res, HeadSwitch, d.params.HeadSwitch)
			d.armHead = a.Head
		}
		if req.Write && d.params.WriteSettle > 0 {
			d.step(p, req, &res, Settle, d.params.WriteSettle)
		}
		// Rotate to the start of the first sector of the extent.
		d.step(p, req, &res, RotWait, d.rotateWait(p.Now(), g.SectorAngle(a)))

		// Transfer (at the actual spindle speed, drift included).
		secTime := d.rotPeriod / time.Duration(spt)
		transferStart := p.Now()
		d.lane.Enter(laneFirstPhase+int(Transfer), int64(transferStart))
		for i := 0; i < extent; i++ {
			p.Sleep(secTime)
			res.Phases[Transfer] += secTime
			off := (req.Count - remaining + i) * geom.SectorSize
			cur := lba + int64(i)
			// Latent sector errors surface as the head passes the sector;
			// the command aborts there, leaving earlier sectors transferred
			// (for writes: persisted — the torn-write semantics recovery
			// must tolerate).
			if d.inj != nil {
				if err := d.inj.SectorFault(p.Now(), req.Write, cur); err != nil {
					res.Err = fmt.Errorf("disk %s: lba %d: %w", d.params.Name, cur, err)
					res.Transferred = req.Count - remaining + i
					d.finish(p, req, &res)
					if d.tr != nil {
						d.tr.Emit(trace.Event{At: int64(transferStart), Dur: int64(p.Now().Sub(transferStart)),
							Kind: phases[Transfer].kind, Track: d.trName, LBA: lba, Count: i, B: writeFlag(req.Write)})
						d.tr.Emit(trace.Event{At: int64(p.Now()), Kind: trace.KFault, Track: d.trName,
							LBA: cur, Count: 1, B: writeFlag(req.Write)})
					}
					return res
				}
			}
			if req.Write {
				d.media.write(cur, buf[off:off+geom.SectorSize])
				if d.inj != nil {
					d.inj.SectorWritten(cur)
				}
				// One sector is now on the platter: an interesting event for
				// crash exploration (a cut here tears the transfer).
				d.env.EmitProbe(p, sim.ProbeMediaWrite, d.params.Name, cur, 1)
			} else {
				d.media.read(cur, buf[off:off+geom.SectorSize])
			}
		}
		if d.tr != nil && extent > 0 {
			d.tr.Emit(trace.Event{At: int64(transferStart), Dur: int64(p.Now().Sub(transferStart)),
				Kind: phases[Transfer].kind, Track: d.trName, LBA: lba, Count: extent, B: writeFlag(req.Write)})
		}
		lba += int64(extent)
		remaining -= extent
	}

	res.Transferred = req.Count
	d.finish(p, req, &res)
	if d.tr != nil {
		d.tr.Emit(trace.Event{At: int64(res.Start), Dur: int64(res.Latency()), Kind: trace.KCommand,
			Track: d.trName, LBA: req.LBA, Count: req.Count, A: int64(res.Transferred), B: writeFlag(req.Write)})
	}
	return res
}

// step runs one mechanical phase of duration dur: it emits the phase's trace
// event (none for a zero duration: the phase did not happen), charges the
// lane to the phase's state, sleeps and tallies dur into res.
func (d *Disk) step(p *sim.Proc, req *Request, res *Result, ph Phase, dur time.Duration) {
	if d.tr != nil && dur > 0 {
		d.tr.Emit(trace.Event{At: int64(p.Now()), Dur: int64(dur), Kind: phases[ph].kind,
			Track: d.trName, LBA: req.LBA, Count: req.Count, B: writeFlag(req.Write)})
	}
	d.lane.Enter(laneFirstPhase+int(ph), int64(p.Now()))
	p.Sleep(dur)
	res.Phases[ph] += dur
}

// finish ends the command now: the drive goes idle, and res is stamped and
// added to the drive's counters.
func (d *Disk) finish(p *sim.Proc, req *Request, res *Result) {
	d.lane.Enter(laneIdle, int64(p.Now()))
	res.End = p.Now()
	d.lastCmdEnd = res.End
	if res.Err != nil {
		d.stats.Errors++
	}
	if req.Write {
		d.stats.Writes++
		d.stats.SectorsWritten += int64(res.Transferred)
	} else {
		d.stats.Reads++
		d.stats.SectorsRead += int64(res.Transferred)
	}
	d.stats.Busy += res.Latency()
	d.stats.SeekTime += res.Phases[Seek] + res.Phases[HeadSwitch]
	d.stats.RotateTime += res.Phases[RotWait]
	d.stats.TransferTime += res.Phases[Transfer]
}

// writeFlag encodes a command direction into an event argument.
func writeFlag(w bool) int64 {
	if w {
		return 1
	}
	return 0
}

// sectorStore holds a drive's written sectors up to their last non-zero byte,
// in slots carved out of shared slabs: a first slot is rounded up to 16 bytes,
// an overwrite that does not fit moves to a full-sector one (so at most two),
// and an all-zero sector has none. Slots sit in groups of 16 sectors keyed by
// lba/16; the last group looked up is kept, found or not, so a sector costs
// an array index. Nothing is freed singly (MediaZero drops the whole store).
type sectorStore struct {
	groups  map[int64]*group
	batch   sim.Slab[group]
	slabs   [][]byte // every slab; the newest has free bytes past its length
	n       int      // sectors held
	last    *group   // groups[lastKey], the group looked up last: nil if never written
	lastKey int64
}

const groupSectors = 16 // small, as sparse 4 KB writes fill half a group each

type group [groupSectors]slot

// slot packs where a sector's held bytes live into 8 bytes with no pointer,
// so the GC never scans a group: presence (bit 63; zero for a sector never
// written), slab (32-62), byte offset in it (16-31), capacity in 16-byte
// units (10-15) and held length (0-9).
type slot uint64

const present slot = 1 << 63

func (h slot) capacity() int { return int(h>>10&0x3f) * 16 }
func (h slot) len() int      { return int(h & 0x3ff) }

// A slab holds as many sectors, and a batch as many groups, as the store
// already does, by sim.ChunkLen.
func newSectorStore() sectorStore { return sectorStore{groups: map[int64]*group{}} }

// bytes returns the held bytes h points at.
func (s *sectorStore) bytes(h slot) []byte {
	if h.len() == 0 {
		return nil
	}
	return s.slabs[h>>32&0x7fffffff][h>>16&0xffff:][:h.len()]
}

// find returns lba's slot, or nil for a group never written unless add is
// set, which adds the group.
func (s *sectorStore) find(lba int64, add bool) *slot {
	if key := lba / groupSectors; key != s.lastKey {
		s.last, s.lastKey = s.groups[key], key
	}
	if s.last == nil {
		if !add {
			return nil
		}
		s.last = s.batch.New()
		s.groups[s.lastKey] = s.last
	}
	return &s.last[lba%groupSectors]
}

// write stores the sectors of data from lba on, carving a slot for each whose
// held bytes outgrow the one it has.
func (s *sectorStore) write(lba int64, data []byte) {
	for ; len(data) > 0; lba, data = lba+1, data[geom.SectorSize:] {
		at := s.find(lba, true)
		n, h := geom.Held(data[:geom.SectorSize]), *at
		if n > h.capacity() {
			size := geom.SectorSize
			if h.capacity() == 0 {
				size = (n + 15) &^ 15
			}
			last := len(s.slabs) - 1
			if last < 0 || cap(s.slabs[last])-len(s.slabs[last]) < size {
				s.slabs = append(s.slabs, make([]byte, 0, sim.ChunkLen(s.n)*geom.SectorSize))
				last++
			}
			off := len(s.slabs[last])
			s.slabs[last] = s.slabs[last][:off+size]
			h = slot(last)<<32 | slot(off)<<16 | slot(size/16)<<10
		}
		if *at == 0 {
			s.n++
		}
		*at = h&^0x3ff | slot(n) | present
		copy(s.bytes(*at), data)
	}
}

// clone copies the store, every group and every slab; the group looked up
// last is the source's, so the copy looks up its own.
func (s *sectorStore) clone() sectorStore {
	c := sectorStore{groups: make(map[int64]*group, len(s.groups)), slabs: make([][]byte, len(s.slabs)), n: s.n}
	batch := c.batch.Carve(len(s.groups))
	i := 0
	for key, g := range s.groups {
		batch[i] = *g
		c.groups[key] = &batch[i]
		i++
	}
	for i, slab := range s.slabs {
		c.slabs[i] = bytes.Clone(slab)
	}
	c.last = c.groups[c.lastKey]
	return c
}

// read fills into with the sectors from lba on; never-written ones read zero.
func (s *sectorStore) read(lba int64, into []byte) {
	for ; len(into) > 0; lba, into = lba+1, into[geom.SectorSize:] {
		n := 0
		if at := s.find(lba, false); at != nil {
			n = copy(into, s.bytes(*at))
		}
		clear(into[n:geom.SectorSize])
	}
}

// MediaRead copies count sectors starting at lba out of the persistent media,
// with no timing cost. Intended for tests and post-crash verification, not
// for driver code paths.
func (d *Disk) MediaRead(lba int64, count int) []byte {
	out := make([]byte, count*geom.SectorSize)
	d.media.read(lba, out)
	return out
}

// MediaWrite stores count sectors at lba directly, with no timing cost.
// Intended for formatting tools and test setup.
func (d *Disk) MediaWrite(lba int64, data []byte) {
	if len(data)%geom.SectorSize != 0 {
		panic("disk: MediaWrite data not sector-aligned")
	}
	d.media.write(lba, data)
}

// MediaZero discards all media contents (reformatting).
func (d *Disk) MediaZero() { d.media = newSectorStore() }

// WrittenSectors returns how many distinct sectors hold data.
func (d *Disk) WrittenSectors() int { return d.media.n }

// MediaBytes returns the slab bytes the media store holds for the sectors
// written: each sector's slot, its held length rounded up to 16 bytes until
// it grows to a whole sector. The unused tail of the newest slab is not
// counted.
func (d *Disk) MediaBytes() int {
	n := 0
	for _, slab := range d.media.slabs {
		n += cap(slab)
	}
	if last := len(d.media.slabs) - 1; last >= 0 {
		n -= cap(d.media.slabs[last]) - len(d.media.slabs[last])
	}
	return n
}
