package cluster

// Observability wiring. The cluster carries its own span recorder (driver
// name "cluster", dev "shard<i>"), registers its Stats counters and each
// shard's Levels with the telemetry registry (through CounterFuncs and
// GaugeFuncs, like every layer), and exposes per-shard health lanes plus
// failover/hedge/rebuild marks on the timeline aggregator. Shard disks get
// their own timeline lanes under generation-qualified names ("s0.g1.log")
// so a replacement's traffic is distinguishable from the hardware it
// replaced; the Trail drivers' own registry/timeline hooks are left unwired
// — their hardcoded "trail"/"driver" series names would collide across
// shards.

import (
	"fmt"
	"strconv"

	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
)

// SetRecorder attaches (or with nil, detaches) the cluster's span recorder.
func (c *Cluster) SetRecorder(rec *span.Recorder) { c.rec = rec }

// SetTimeline attaches the cluster to a utilization-timeline aggregator:
// one health-state lane per shard (states healthy/suspect/dead/recovering —
// the recovering window is the rebuild's distinct lane), cluster marks for
// failovers, hedges, rebuild copies, and shed writes, plus per-disk
// occupancy lanes for every current shard disk. Call once, before the run.
func (c *Cluster) SetTimeline(a *timeline.Aggregator) {
	c.agg = a
	if a == nil {
		return
	}
	c.tlFailover = a.Mark("cluster", "router", "failovers")
	c.tlHedge = a.Mark("cluster", "router", "hedges")
	c.tlRebuild = a.Mark("cluster", "router", "rebuild_copies")
	c.tlShed = a.Mark("cluster", "router", "shed_writes")
	for _, sh := range c.shards {
		sh.lane = a.Lane("cluster", fmt.Sprintf("shard%d", sh.idx), stateNames[:])
		c.observeShardDisks(sh)
	}
}

// observeShardDisks registers occupancy lanes for one shard generation's
// disks. Replacement generations register fresh lanes at provision time.
func (c *Cluster) observeShardDisks(sh *Shard) {
	sh.log.SetTimeline(c.agg, fmt.Sprintf("s%d.g%d.log", sh.idx, sh.gen))
	sh.data.SetTimeline(c.agg, fmt.Sprintf("s%d.g%d.data", sh.idx, sh.gen))
}

// Counters names every Stats field as a "cluster.*" counter.
func (s Stats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"cluster.writes":          s.Writes,
		"cluster.writes_acked":    s.WritesAcked,
		"cluster.degraded_acks":   s.DegradedAcks,
		"cluster.writes_shed":     s.WritesShed,
		"cluster.writes_failed":   s.WritesFailed,
		"cluster.reads":           s.Reads,
		"cluster.reads_ok":        s.ReadsOK,
		"cluster.reads_failed":    s.ReadsFailed,
		"cluster.failovers":       s.Failovers,
		"cluster.hedges":          s.Hedges,
		"cluster.hedge_wins":      s.HedgeWins,
		"cluster.shard_deaths":    s.ShardDeaths,
		"cluster.recoveries":      s.Recoveries,
		"cluster.rebuild_copies":  s.RebuildCopies,
		"cluster.rebuild_retries": s.RebuildRetries,
	}
}

// Levels snapshots the shard's health state (0 healthy, 1 suspect, 2 dead,
// 3 recovering) and hardware generation, which each replacement
// increments.
func (s *Shard) Levels() telemetry.Levels {
	return telemetry.Levels{
		"cluster.shard_health":     float64(s.state),
		"cluster.shard_generation": float64(s.gen),
	}
}

// RegisterMetrics exposes the cluster's Stats counters, and each shard
// slot's Levels under a shard label, on reg: a slot's series read whichever
// generation serves it.
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return c.stats.Counters() })
	for i := range c.shards {
		reg.GaugeFuncs(func() telemetry.Levels { return c.shards[i].Levels() },
			telemetry.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
}
