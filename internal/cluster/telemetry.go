package cluster

// Observability wiring. The cluster carries its own span recorder (driver
// name "cluster", dev "shard<i>"), registers its Stats counters (through
// Stats.Counters and Registry.CounterFuncs, like every layer) and per-shard
// health gauges with the telemetry registry, and exposes per-shard health
// lanes plus failover/hedge/rebuild marks on the timeline aggregator. Shard
// disks get their own timeline lanes under generation-qualified names
// ("s0.g1.log") so a replacement's traffic is distinguishable from the
// hardware it replaced; the Trail drivers' own registry/timeline hooks are
// left unwired — their hardcoded "trail"/"driver" series names would
// collide across shards.

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

// RegisterMetrics exposes the cluster's Stats counters and per-shard health
// on reg. Per-shard series carry a shard label; the health gauge encodes the
// state machine numerically (0 healthy, 1 suspect, 2 dead, 3 recovering).
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFuncs(func() telemetry.Counts { return c.stats.Counters() })
	for i := range c.shards {
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc(telemetry.Prefix+"cluster_shard_health",
			"Shard health state (0 healthy, 1 suspect, 2 dead, 3 recovering).",
			func() float64 { return float64(c.shards[i].state) }, lbl)
		reg.GaugeFunc(telemetry.Prefix+"cluster_shard_generation",
			"Shard hardware generation (replacements increment).",
			func() float64 { return float64(c.shards[i].gen) }, lbl)
	}
}
