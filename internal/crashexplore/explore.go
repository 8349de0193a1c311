package crashexplore

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/sim"
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
	// Horizon bounds the census in virtual time. Zero defaults to 150ms,
	// past RunSingle's largest cut instant.
	Horizon time.Duration
	// Kinds restricts branching to these probe kinds (nil = branch on all).
	// The census still counts every kind (Report.TotalProbes).
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

func eventInfo(ev sim.ProbeEvent) EventInfo {
	return EventInfo{
		Index: ev.Index, Kind: ev.Kind.String(), At: int64(ev.At),
		Dev: ev.Dev, LBA: ev.LBA, Count: ev.Count,
	}
}

// Branch is the audited outcome of cutting power at one event.
type Branch struct {
	Event     EventInfo   `json:"event"`
	Surviving int         `json:"surviving"`
	Lost      int         `json:"lost"`
	Torn      int         `json:"torn"`
	Failures  []SlotAudit `json:"failures,omitempty"` // only failing slots
	Err       string      `json:"err,omitempty"`      // recovery error
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
// power cut at each.
type Explorer struct {
	stack Stack
	opts  Options
}

// New returns an explorer over the stack; Run explores.
func New(st Stack, opts Options) *Explorer {
	return &Explorer{stack: st, opts: opts}
}

// Run runs the census — one run of the seeded workload to the horizon,
// counting every probe event — and pauses it at each event inside the window
// (and of a wanted kind) to fork a branch there, in event order. It returns
// the report.
func (x *Explorer) Run() (*Report, error) {
	env := sim.NewEnv()
	defer env.Close()
	write, drives, err := x.stack.Build(env)
	if err != nil {
		return nil, fmt.Errorf("crashexplore: census build: %w", err)
	}
	var at EventInfo
	env.SetProbeHook(func(ev sim.ProbeEvent) bool {
		// Index-Skip, not Skip+Window: the sum overflows for a window
		// reaching past every index.
		if ev.Index < x.opts.Skip || (x.opts.Window > 0 && ev.Index-x.opts.Skip >= x.opts.Window) || !x.opts.wantKind(ev.Kind) {
			return false
		}
		at = eventInfo(ev)
		return true
	})
	acked, _ := launchWorkload(env, x.opts.Seed, x.stack.Slots, write)
	rep := &Report{Seed: x.opts.Seed, Slots: x.stack.Slots, FirstFailing: -1}
	for env.RunUntil(x.opts.horizon()); env.Paused(); env.RunUntil(x.opts.horizon()) {
		b := x.fork(at, drives, acked)
		rep.Branches = append(rep.Branches, b)
		if b.Lost > 0 {
			rep.LostBranches++
		}
		if b.Torn > 0 {
			rep.TornBranches++
		}
		if b.Err != "" {
			rep.ErrorBranches++
		}
		if b.Failed() && rep.FirstFailing == -1 {
			rep.FirstFailing = at.Index
		}
	}
	rep.TotalProbes = env.ProbeCount()
	rep.Candidates = len(rep.Branches)
	rep.Explored = len(rep.Branches)
	return rep, nil
}

// fork runs the branch at ev off the census paused there: it clones the
// drives, recovers the clones and audits them against acked. The clones die
// with the branch.
func (x *Explorer) fork(ev EventInfo, drives []*disk.Disk, acked []int) Branch {
	clones := make([]*disk.Disk, len(drives))
	for i, d := range drives {
		clones[i] = d.Clone()
	}
	return x.branch(ev, clones, acked)
}

// branch reboots the stack on drives on a fresh environment and audits every
// slot against acked, the versions acknowledged before the cut at ev.
func (x *Explorer) branch(ev EventInfo, drives []*disk.Disk, acked []int) Branch {
	b := Branch{Event: ev}
	env := sim.NewEnv()
	defer env.Close()
	read, err := x.stack.Recover(env, drives)
	if err != nil {
		b.Err = fmt.Sprintf("recover: %v", err)
		return b
	}
	for _, a := range audit(env, read, acked) {
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
