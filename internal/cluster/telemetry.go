package cluster

// Observability wiring. The cluster carries its own span recorder (driver
// name "cluster", dev "shard<i>"), registers its counters and per-shard
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

// RegisterMetrics exposes the cluster's counters and per-shard health on
// reg. Per-shard series carry a shard label; the health gauge encodes the
// state machine numerically (0 healthy, 1 suspect, 2 dead, 3 recovering).
func (c *Cluster) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	counters := []struct {
		name, help string
		v          *int64
	}{
		{"cluster_writes_total", "Write requests admitted to the router.", &c.stats.Writes},
		{"cluster_writes_acked_total", "Writes acknowledged with at least one durable copy.", &c.stats.WritesAcked},
		{"cluster_degraded_acks_total", "Writes acknowledged with one copy down.", &c.stats.DegradedAcks},
		{"cluster_writes_shed_total", "Writes refused with ErrOverload.", &c.stats.WritesShed},
		{"cluster_writes_failed_total", "Writes failed outright.", &c.stats.WritesFailed},
		{"cluster_reads_total", "Read requests admitted to the router.", &c.stats.Reads},
		{"cluster_reads_ok_total", "Reads served from some copy.", &c.stats.ReadsOK},
		{"cluster_reads_failed_total", "Reads that exhausted every copy.", &c.stats.ReadsFailed},
		{"cluster_failovers_total", "Reads redirected to the replica after primary failure.", &c.stats.Failovers},
		{"cluster_hedges_total", "Hedged replica reads issued.", &c.stats.Hedges},
		{"cluster_hedge_wins_total", "Hedged reads that beat the primary.", &c.stats.HedgeWins},
		{"cluster_shard_deaths_total", "Shards declared dead.", &c.stats.ShardDeaths},
		{"cluster_recoveries_total", "Shards returned to healthy after rebuild.", &c.stats.Recoveries},
		{"cluster_rebuild_copies_total", "Slots replayed onto replacement shards.", &c.stats.RebuildCopies},
		{"cluster_rebuild_retries_total", "Rebuild copy attempts refused and retried.", &c.stats.RebuildRetries},
	}
	for _, ct := range counters {
		v := ct.v
		reg.CounterFunc(telemetry.Prefix+ct.name, ct.help, func() int64 { return *v })
	}
	for i := range c.shards {
		i := i
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
		reg.GaugeFunc(telemetry.Prefix+"cluster_shard_health",
			"Shard health state (0 healthy, 1 suspect, 2 dead, 3 recovering).",
			func() float64 { return float64(c.shards[i].state) }, lbl)
		reg.GaugeFunc(telemetry.Prefix+"cluster_shard_generation",
			"Shard hardware generation (replacements increment).",
			func() float64 { return float64(c.shards[i].gen) }, lbl)
	}
}
