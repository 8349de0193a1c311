package crashexplore

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// Options shapes one exploration.
type Options struct {
	// Seed selects the workload (think times); the same seed always yields
	// the same event census and the same branch outcomes.
	Seed uint64
	// Skip is the first probe index eligible for branching. Window is the
	// number of consecutive probe indices after Skip that are eligible
	// (0 = everything up to the horizon). Together they bound the explored
	// region — and bisect a failure by re-exploring around it.
	Skip   int64
	Window int64
	// Horizon bounds each run in virtual time (census and branches alike).
	// Zero defaults to 150ms, past RunSingle's largest cut instant.
	Horizon time.Duration
	// Kinds restricts branching to these probe kinds (nil = branch on all).
	// The census still records every kind for the report.
	Kinds []sim.ProbeKind
}

// DefaultHorizon bounds a run when Options.Horizon is zero.
const DefaultHorizon = 150 * time.Millisecond

func (o Options) horizon() sim.Time {
	if o.Horizon <= 0 {
		return sim.Time(DefaultHorizon)
	}
	return sim.Time(o.Horizon)
}

func (o Options) wantKind(k sim.ProbeKind) bool {
	if len(o.Kinds) == 0 {
		return true
	}
	for _, want := range o.Kinds {
		if k == want {
			return true
		}
	}
	return false
}

// ParseKind maps a probe-kind name (as printed in reports: "ack",
// "media-write", "wb-start", "wb-end", "commit") back to its kind.
func ParseKind(name string) (sim.ProbeKind, error) {
	for k := sim.ProbeAck; k <= sim.ProbeCommit; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("crashexplore: unknown probe kind %q", name)
}

// EventInfo is one interesting event from the census, identified by its
// global probe index — the branch coordinate.
type EventInfo struct {
	Index int64  `json:"index"`
	Kind  string `json:"kind"`
	At    int64  `json:"at_ns"` // virtual time of emission
	Dev   string `json:"dev"`
	LBA   int64  `json:"lba"`
	Count int    `json:"count"`
}

// Branch is the audited outcome of cutting power at one event.
type Branch struct {
	Event     EventInfo   `json:"event"`
	Surviving int         `json:"surviving"`
	Lost      int         `json:"lost"`
	Torn      int         `json:"torn"`
	Failures  []SlotAudit `json:"failures,omitempty"` // only failing slots
	Err       string      `json:"err,omitempty"`      // build/replay/recovery error
}

// Failed reports whether the branch violates the durability contract or
// could not complete.
func (b *Branch) Failed() bool { return b.Lost > 0 || b.Torn > 0 || b.Err != "" }

// Report aggregates an exploration.
type Report struct {
	Seed        uint64 `json:"seed"`
	Slots       int    `json:"slots"`
	TotalProbes int64  `json:"total_probes"` // census events within the horizon
	Candidates  int    `json:"candidates"`   // events eligible for branching
	Explored    int    `json:"explored"`
	// Failure tallies across explored branches.
	LostBranches  int `json:"lost_branches"`
	TornBranches  int `json:"torn_branches"`
	ErrorBranches int `json:"error_branches"`
	// FirstFailing is the minimal failing event index — the bisection
	// handle — or -1 while every explored branch holds.
	FirstFailing int64    `json:"first_failing"`
	Branches     []Branch `json:"branches"`
}

// Failed reports whether any explored branch violates the contract.
func (r *Report) Failed() bool {
	return r.LostBranches > 0 || r.TornBranches > 0 || r.ErrorBranches > 0
}

// WriteJSON renders the report deterministically: two identical explorations
// produce byte-identical output.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Explorer enumerates the interesting events of one seeded run and audits a
// power cut at each. Branches run in event order, one Step at a time, so an
// exploration can be snapshotted mid-way and resumed elsewhere.
type Explorer struct {
	stack   Stack
	opts    Options
	planned bool
	events  []EventInfo // branch candidates, ascending index
	next    int         // position in events of the next branch
	report  Report
}

// New returns an explorer over the stack. Call Run, or Plan followed by
// Step, to explore.
func New(st Stack, opts Options) *Explorer {
	return &Explorer{stack: st, opts: opts}
}

// Report returns the exploration's accumulated report. Branches explored so
// far are final; the tallies grow as Step proceeds.
func (x *Explorer) Report() *Report { return &x.report }

// Remaining returns the number of branches not yet explored (0 before Plan).
func (x *Explorer) Remaining() int { return len(x.events) - x.next }

// Plan runs the census: one straight-through run of the seeded workload to
// the horizon, recording every probe event. Events inside the window (and of
// a wanted kind) become branch candidates. Plan is idempotent.
func (x *Explorer) Plan() error {
	if x.planned {
		return nil
	}
	env := sim.NewEnv()
	defer env.Close()
	write, err := x.stack.Build(env)
	if err != nil {
		return fmt.Errorf("crashexplore: census build: %w", err)
	}
	end := x.opts.Skip + x.opts.Window
	env.SetProbeHook(func(ev sim.ProbeEvent) bool {
		if ev.Index < x.opts.Skip || (x.opts.Window > 0 && ev.Index >= end) {
			return false
		}
		if !x.opts.wantKind(ev.Kind) {
			return false
		}
		x.events = append(x.events, EventInfo{
			Index: ev.Index, Kind: ev.Kind.String(), At: int64(ev.At),
			Dev: ev.Dev, LBA: ev.LBA, Count: ev.Count,
		})
		return false
	})
	launchWorkload(env, x.opts.Seed, x.stack.Slots, write)
	env.RunUntil(x.opts.horizon())

	x.planned = true
	x.report = Report{
		Seed:         x.opts.Seed,
		Slots:        x.stack.Slots,
		TotalProbes:  env.ProbeCount(),
		Candidates:   len(x.events),
		FirstFailing: -1,
	}
	return nil
}

// Step explores the next branch: replay to its event, cut power there,
// recover, audit. It returns the branch and whether any branches remain.
// Step after the last branch returns (nil, false, nil).
func (x *Explorer) Step() (*Branch, bool, error) {
	if err := x.Plan(); err != nil {
		return nil, false, err
	}
	if x.next >= len(x.events) {
		return nil, false, nil
	}
	ev := x.events[x.next]
	x.next++
	b := x.runBranch(ev)
	x.report.Branches = append(x.report.Branches, b)
	x.report.Explored++
	if b.Lost > 0 {
		x.report.LostBranches++
	}
	if b.Torn > 0 {
		x.report.TornBranches++
	}
	if b.Err != "" {
		x.report.ErrorBranches++
	}
	if b.Failed() && (x.report.FirstFailing == -1 || ev.Index < x.report.FirstFailing) {
		x.report.FirstFailing = ev.Index
	}
	return &x.report.Branches[len(x.report.Branches)-1], x.next < len(x.events), nil
}

// Run explores every branch and returns the report.
func (x *Explorer) Run() (*Report, error) {
	for {
		_, more, err := x.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			return &x.report, nil
		}
	}
}

// runBranch replays the seeded world from scratch, pauses it at the target
// probe index, cuts power, and audits recovery.
func (x *Explorer) runBranch(ev EventInfo) Branch {
	b := Branch{Event: ev}
	env := sim.NewEnv()
	write, err := x.stack.Build(env)
	if err != nil {
		env.Close()
		b.Err = fmt.Sprintf("build: %v", err)
		return b
	}
	env.SetProbeHook(func(pe sim.ProbeEvent) bool {
		return pe.Index == ev.Index
	})
	acked, _ := launchWorkload(env, x.opts.Seed, x.stack.Slots, write)
	env.RunUntil(x.opts.horizon())
	paused := env.Paused()
	env.Close() // the power cut: every in-flight process dies here
	if !paused {
		b.Err = errEventNotReached.Error()
		return b
	}

	env2 := sim.NewEnv()
	defer env2.Close()
	read, err := x.stack.Recover(env2)
	if err != nil {
		b.Err = fmt.Sprintf("recover: %v", err)
		return b
	}
	for _, a := range audit(env2, read, acked) {
		switch {
		case a.Torn:
			b.Torn++
			b.Failures = append(b.Failures, a)
		case a.Lost():
			b.Lost++
			b.Failures = append(b.Failures, a)
		default:
			b.Surviving++
		}
	}
	return b
}

// explorerSnapKind versions the explorer's resumable state.
const explorerSnapKind = "crashexplore.Explorer"

// Snapshot encodes the exploration's full progress — options, census,
// position, and the report so far — so a paused exploration resumes
// elsewhere to the byte-identical final report.
func (x *Explorer) Snapshot() []byte {
	w := snapshot.NewWriter(explorerSnapKind, 1)
	w.U64(x.opts.Seed)
	w.I64(x.opts.Skip)
	w.I64(x.opts.Window)
	w.I64(int64(x.opts.Horizon))
	w.U32(uint32(len(x.opts.Kinds)))
	for _, k := range x.opts.Kinds {
		w.U8(uint8(k))
	}
	w.Bool(x.planned)
	w.U32(uint32(len(x.events)))
	for _, ev := range x.events {
		encodeEvent(w, ev)
	}
	w.Int(x.next)

	w.U64(x.report.Seed)
	w.Int(x.report.Slots)
	w.I64(x.report.TotalProbes)
	w.Int(x.report.Candidates)
	w.Int(x.report.Explored)
	w.Int(x.report.LostBranches)
	w.Int(x.report.TornBranches)
	w.Int(x.report.ErrorBranches)
	w.I64(x.report.FirstFailing)
	w.U32(uint32(len(x.report.Branches)))
	for _, b := range x.report.Branches {
		encodeEvent(w, b.Event)
		w.Int(b.Surviving)
		w.Int(b.Lost)
		w.Int(b.Torn)
		w.U32(uint32(len(b.Failures)))
		for _, a := range b.Failures {
			w.Int(a.Slot)
			w.Int(a.Acked)
			w.Int(a.Found)
			w.Bool(a.Torn)
		}
		w.String(b.Err)
	}
	return w.Bytes()
}

// NewFromSnapshot resumes an exploration from a Snapshot over the same stack
// (the stack itself is code, not state, and is supplied fresh).
func NewFromSnapshot(st Stack, data []byte) (*Explorer, error) {
	r, err := snapshot.NewReader(data, explorerSnapKind, 1)
	if err != nil {
		return nil, err
	}
	x := &Explorer{stack: st}
	x.opts.Seed = r.U64()
	x.opts.Skip = r.I64()
	x.opts.Window = r.I64()
	x.opts.Horizon = time.Duration(r.I64())
	nk := r.Len()
	for i := 0; i < nk; i++ {
		x.opts.Kinds = append(x.opts.Kinds, sim.ProbeKind(r.U8()))
	}
	x.planned = r.Bool()
	ne := r.Len()
	for i := 0; i < ne; i++ {
		x.events = append(x.events, decodeEvent(r))
	}
	x.next = r.Int()

	x.report.Seed = r.U64()
	x.report.Slots = r.Int()
	x.report.TotalProbes = r.I64()
	x.report.Candidates = r.Int()
	x.report.Explored = r.Int()
	x.report.LostBranches = r.Int()
	x.report.TornBranches = r.Int()
	x.report.ErrorBranches = r.Int()
	x.report.FirstFailing = r.I64()
	nb := r.Len()
	for i := 0; i < nb; i++ {
		var b Branch
		b.Event = decodeEvent(r)
		b.Surviving = r.Int()
		b.Lost = r.Int()
		b.Torn = r.Int()
		nf := r.Len()
		for j := 0; j < nf; j++ {
			var a SlotAudit
			a.Slot = r.Int()
			a.Acked = r.Int()
			a.Found = r.Int()
			a.Torn = r.Bool()
			b.Failures = append(b.Failures, a)
		}
		b.Err = r.StringVal()
		x.report.Branches = append(x.report.Branches, b)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if x.next < 0 || x.next > len(x.events) {
		return nil, fmt.Errorf("%w: resume position %d of %d events",
			snapshot.ErrCorrupt, x.next, len(x.events))
	}
	return x, nil
}

func encodeEvent(w *snapshot.Writer, ev EventInfo) {
	w.I64(ev.Index)
	w.String(ev.Kind)
	w.I64(ev.At)
	w.String(ev.Dev)
	w.I64(ev.LBA)
	w.Int(ev.Count)
}

func decodeEvent(r *snapshot.Reader) EventInfo {
	var ev EventInfo
	ev.Index = r.I64()
	ev.Kind = r.StringVal()
	ev.At = r.I64()
	ev.Dev = r.StringVal()
	ev.LBA = r.I64()
	ev.Count = r.Int()
	return ev
}
