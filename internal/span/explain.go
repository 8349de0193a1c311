package span

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tracklog/internal/telemetry"
)

// Tail-latency explainer: for the slowest k% of requests, name the dominant
// phase and a root cause. This turns the prediction audit's aggregate miss
// rate into per-request blame — "this write took 12.8ms because the head
// prediction missed and it paid a full rotation", "this read queued behind
// a write-back burst".

// TailEntry explains one slow request.
type TailEntry struct {
	Req      *Request
	Latency  time.Duration
	Dominant Phase
	// SharePct is the dominant phase's integer share of latency (0-100).
	SharePct int64
	Cause    string
}

// TailReport is the explainer's output for one request population.
type TailReport struct {
	Total   int // requests considered
	Entries []TailEntry
	Causes  telemetry.Counts // cause string → occurrences in the tail
}

// TailFrac is the share of requests, slowest first, that ExplainTail explains.
const TailFrac = 0.05

// ExplainTail explains the slowest TailFrac of reqs (at least one request
// when any exist). Ordering is deterministic: latency descending, then id.
func ExplainTail(reqs []*Request) *TailReport {
	rep := &TailReport{Total: len(reqs), Causes: telemetry.Counts{}}
	if len(reqs) == 0 {
		return rep
	}
	sorted := make([]*Request, len(reqs))
	copy(sorted, reqs)
	sort.Slice(sorted, func(i, j int) bool {
		if li, lj := sorted[i].Latency(), sorted[j].Latency(); li != lj {
			return li > lj
		}
		return sorted[i].ID < sorted[j].ID
	})
	k := max(1, int(TailFrac*float64(len(sorted))))
	for _, r := range sorted[:k] {
		e := explain(r)
		rep.Entries = append(rep.Entries, e)
		rep.Causes[e.Cause]++
	}
	return rep
}

// explain classifies one request.
func explain(r *Request) TailEntry {
	var tot [numPhases]int64
	var rotPeriod, maxDepth, maxWritesAhead, retries int64
	var shed, expired, failover, hedge, hedgeWon bool
	for _, s := range r.Spans {
		tot[s.Phase] += s.Dur()
		switch s.Phase {
		case PRotWait:
			if s.A > rotPeriod {
				rotPeriod = s.A
			}
		case PQueue:
			if s.A > maxDepth {
				maxDepth = s.A
			}
			if s.B > maxWritesAhead {
				maxWritesAhead = s.B
			}
		case PRetry:
			retries++
		case PShed:
			shed = true
		case PDeadline:
			expired = true
		case PFailover:
			failover = true
		case PHedge:
			hedge = true
			if s.B == 1 {
				hedgeWon = true
			}
		}
	}
	dominant := Phase(0)
	var dommax int64 = -1
	for p := Phase(0); p < numPhases; p++ {
		if tot[p] > dommax {
			dominant, dommax = p, tot[p]
		}
	}
	lat := r.Latency()
	var pct int64
	if lat > 0 {
		pct = dommax * 100 / lat
	}
	return TailEntry{
		Req: r, Latency: time.Duration(lat), Dominant: dominant, SharePct: pct,
		Cause: cause(r, dominant, tot[:], rotPeriod, maxDepth, maxWritesAhead, retries,
			shed, expired, failover, hedge, hedgeWon),
	}
}

// cause names the root cause with deterministic rules, most specific first.
// Overload outcomes outrank everything else: a shed or expired request's
// story is the overload, whatever phase happened to dominate its latency.
// Cluster redirections (failover, hedge) outrank mechanical phases the same
// way: a request that changed shards mid-flight is slow because it changed
// shards, whatever the replica's disk then spent the time on.
func cause(r *Request, dominant Phase, tot []int64, rotPeriod, depth, writesAhead, retries int64, shed, expired, failover, hedge, hedgeWon bool) string {
	if shed {
		return "shed at admission (overload)"
	}
	if expired {
		if tot[PThrottle] > 0 {
			return "deadline exceeded while throttled (overload)"
		}
		return "deadline exceeded under overload"
	}
	if dominant == PThrottle {
		return "throttled against write-back progress (log pressure)"
	}
	if failover {
		return "failed over to replica after shard failure"
	}
	if hedge {
		if hedgeWon {
			return "hedged to replica after slow primary (hedge won)"
		}
		return "hedged to replica after slow primary"
	}
	if r.Driver == "cluster" {
		switch dominant {
		case PRebuild:
			return "shard rebuild copy (replica replay)"
		case PSubWrite:
			return "write-both replication (slowest copy acks)"
		case PSubRead:
			return "shard read (primary serving)"
		}
	}
	if r.Err {
		return "failed: gave up after retries"
	}
	if retries > 0 {
		return fmt.Sprintf("faulted: %d command attempt(s) retried", retries)
	}
	switch dominant {
	case PRotWait:
		// A near-full rotation means the software head prediction missed
		// its landing sector; a small fraction is the expected in-budget
		// residual the paper's predictor leaves.
		if rotPeriod > 0 && tot[PRotWait] > rotPeriod/2 {
			return "rotational miss after misprediction"
		}
		return "rotational wait (within prediction budget)"
	case PQueue:
		if r.Kind == KRead && writesAhead > 0 {
			return fmt.Sprintf("queued behind write-back burst (%d writes ahead)", writesAhead)
		}
		if depth > 0 {
			return fmt.Sprintf("queued behind %d earlier request(s)", depth)
		}
		return "queued on busy device"
	case PTrackSwitch:
		return "stalled on log-track switch"
	case PSeek:
		return "seek-bound (in-place head movement)"
	case PTransfer:
		return "transfer-bound"
	case PTurnaround, POverhead, PSettle, PHeadSwitch:
		return "command overhead dominated"
	case PLocate:
		return "recovery: locating youngest record"
	case PRebuild:
		return "recovery: rebuilding staging"
	case PWriteBack:
		return "recovery: replaying write-backs"
	case PSubRead:
		return "array member reads (RMW pre-read)"
	case PSubWrite:
		return "array member writes"
	case PStaging:
		return "served from staging"
	}
	return dominant.String() + " dominated"
}

// String renders the tail report: one line per slow request (capped for
// readability) plus the cause histogram.
func (t *TailReport) String() string {
	if t == nil || len(t.Entries) == 0 {
		return "tail explainer: no requests recorded"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "tail explainer: slowest %d of %d requests (%.1f%%)\n",
		len(t.Entries), t.Total, 100*TailFrac)
	const maxRows = 16
	for i, e := range t.Entries {
		if i == maxRows {
			fmt.Fprintf(&sb, "  ... %d more\n", len(t.Entries)-maxRows)
			break
		}
		fmt.Fprintf(&sb, "  #%-5d %-14s %-10s %9v  %3d%% %-11s %s\n",
			e.Req.ID, e.Req.Driver+"/"+e.Req.Kind.String(), e.Req.Dev,
			e.Latency.Round(time.Microsecond), e.SharePct, e.Dominant, e.Cause)
	}
	sb.WriteString("  causes: ")
	sb.WriteString(t.Causes.String())
	sb.WriteByte('\n')
	return sb.String()
}
