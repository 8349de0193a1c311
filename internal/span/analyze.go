package span

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tracklog/internal/telemetry"
)

// Critical-path analyzer: aggregates span trees into a per-component
// latency budget — how much of each request class's end-to-end latency each
// phase accounts for, with mean/p50/p99 per phase. This is the quantified
// form of the paper's decomposition argument: on Trail the budget shows
// transfer + overhead, on the standard subsystem it shows seek + rotation.

// Budget is a latency budget grouped by driver and request kind.
type Budget struct {
	Groups []*GroupBudget
}

// GroupBudget is the budget for one (driver, kind) request class.
type GroupBudget struct {
	Key     string // "driver/kind", e.g. "trail/write"
	Count   int64
	Errors  int64
	Latency *telemetry.Summary
	// Phases present in this group, in Phase declaration order.
	Phases []*PhaseBudget
	// Unattributed is total request time not covered by any child span
	// across the group. The instrumented drivers keep this at exactly zero;
	// anything else is an attribution bug.
	Unattributed time.Duration
}

// PhaseBudget aggregates one phase within a group.
type PhaseBudget struct {
	Phase Phase
	Spans int64 // individual span count
	Reqs  int64 // requests with at least one such span
	Total time.Duration
	// PerReq is the distribution of per-request totals of this phase, over
	// the requests where the phase occurs.
	PerReq *telemetry.Summary
}

// Share returns the phase's fraction of the group's total latency.
func (g *GroupBudget) Share(p *PhaseBudget) float64 {
	total := g.Latency.Sum()
	if total == 0 {
		return 0
	}
	return float64(p.Total) / float64(total)
}

// Analyze aggregates requests into a deterministic latency budget: groups
// sorted by key, phases in declaration order.
func Analyze(reqs []*Request) *Budget {
	byKey := make(map[string]*GroupBudget)
	var keys []string
	for _, r := range reqs {
		key := r.Driver + "/" + r.Kind.String()
		g := byKey[key]
		if g == nil {
			g = &GroupBudget{Key: key, Latency: telemetry.NewSummary()}
			byKey[key] = g
			keys = append(keys, key)
		}
		g.Count++
		if r.Err {
			g.Errors++
		}
		g.Latency.Add(time.Duration(r.Latency()))
		var phaseTot [numPhases]int64
		var phaseSpans [numPhases]int64
		for _, s := range r.Spans {
			phaseTot[s.Phase] += s.Dur()
			phaseSpans[s.Phase]++
		}
		var attributed int64
		for p := Phase(0); p < numPhases; p++ {
			if phaseSpans[p] == 0 {
				continue
			}
			attributed += phaseTot[p]
			pb := g.phase(p)
			pb.Spans += phaseSpans[p]
			pb.Reqs++
			pb.Total += time.Duration(phaseTot[p])
			pb.PerReq.Add(time.Duration(phaseTot[p]))
		}
		g.Unattributed += time.Duration(r.Latency() - attributed)
	}
	sort.Strings(keys)
	b := &Budget{}
	for _, k := range keys {
		g := byKey[k]
		sort.Slice(g.Phases, func(i, j int) bool { return g.Phases[i].Phase < g.Phases[j].Phase })
		b.Groups = append(b.Groups, g)
	}
	return b
}

// phase finds or creates the group's budget row for p.
func (g *GroupBudget) phase(p Phase) *PhaseBudget {
	for _, pb := range g.Phases {
		if pb.Phase == p {
			return pb
		}
	}
	pb := &PhaseBudget{Phase: p, PerReq: telemetry.NewSummary()}
	g.Phases = append(g.Phases, pb)
	return pb
}

// Group returns the budget for one driver/kind key, or nil.
func (b *Budget) Group(key string) *GroupBudget {
	for _, g := range b.Groups {
		if g.Key == key {
			return g
		}
	}
	return nil
}

// String renders the budget as fixed-width tables, one per group.
func (b *Budget) String() string {
	if b == nil || len(b.Groups) == 0 {
		return "span budget: no requests recorded"
	}
	var sb strings.Builder
	for gi, g := range b.Groups {
		if gi > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "span budget: %s — %d requests, %d errors\n", g.Key, g.Count, g.Errors)
		fmt.Fprintf(&sb, "  latency: mean=%v p50=%v p99=%v max=%v\n",
			rnd(g.Latency.Mean()), rnd(g.Latency.Quantile(0.5)),
			rnd(g.Latency.Quantile(0.99)), rnd(g.Latency.Max()))
		fmt.Fprintf(&sb, "  %-12s %7s %7s %10s %10s %10s %10s %7s\n",
			"phase", "spans", "reqs", "total", "mean/req", "p50/req", "p99/req", "share")
		for _, pb := range g.Phases {
			fmt.Fprintf(&sb, "  %-12s %7d %7d %10v %10v %10v %10v %6.1f%%\n",
				pb.Phase, pb.Spans, pb.Reqs, rnd(pb.Total),
				rnd(pb.PerReq.Mean()), rnd(pb.PerReq.Quantile(0.5)),
				rnd(pb.PerReq.Quantile(0.99)), 100*g.Share(pb))
		}
		if g.Unattributed != 0 {
			fmt.Fprintf(&sb, "  UNATTRIBUTED: %v (attribution bug)\n", g.Unattributed)
		}
	}
	return sb.String()
}

// rnd rounds for display.
func rnd(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
