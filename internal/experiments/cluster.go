package experiments

// Cluster experiments: scaling a Trail deployment out to N shards and
// proving the robustness story. The sweep measures throughput and tail
// latency as the same offered load spreads over more shards; the
// kill-one-shard experiment is the acceptance test for the failure path —
// a shard dies mid-run and every acknowledged write must remain readable
// through the surviving replica, with the surviving shards' tails bounded
// and the replacement shard rebuilt back to healthy.

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/cluster"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

// defaultClusterMix is the multi-tenant mix every cluster experiment
// drives: 30% reads, zipf-skewed tenants, 15% background and 10%
// interactive traffic.
func defaultClusterMix(tenants, requests int, seed uint64) (workload.MixConfig, error) {
	cfg := workload.MixConfig{
		Tenants:           tenants,
		Requests:          requests,
		ReadFraction:      0.3,
		Interarrival:      400 * time.Microsecond,
		ZipfS:             0.9,
		BackgroundWeight:  15,
		InteractiveWeight: 10,
		Seed:              seed,
	}
	return cfg, nil
}

// ClusterPoint is one cell of the scale-out sweep.
type ClusterPoint struct {
	Shards int
	// Acked/Shed/Failed partition the writes; ReadsOK/ReadsFailed the reads.
	Acked, Shed, Failed  int64
	ReadsOK, ReadsFailed int64
	// WMean/WP50/WP99 summarize acked-write latency, the R* series served
	// reads.
	WMean, WP50, WP99 time.Duration
	RMean, RP50, RP99 time.Duration
	// AckedPerSec is acked-write throughput over the span of arrivals.
	AckedPerSec float64
}

// ClusterResult is the full shard-count sweep.
type ClusterResult struct {
	Tenants, Requests int
	Points            []ClusterPoint
}

// Cluster sweeps shard counts under a fixed offered load. requests is the
// arrivals per cell (default 1200), tenants the tenant population (default
// 48).
func Cluster(shardCounts []int, tenants, requests int, seed uint64) (*ClusterResult, error) {
	if len(shardCounts) == 0 {
		shardCounts = []int{2, 4, 8}
	}
	if tenants == 0 {
		tenants = 48
	}
	if requests == 0 {
		requests = 1200
	}
	res := &ClusterResult{Tenants: tenants, Requests: requests}
	for _, n := range shardCounts {
		pt, err := clusterCell(n, tenants, requests, seed)
		if err != nil {
			return nil, fmt.Errorf("cluster %d shards: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func clusterCell(shards, tenants, requests int, seed uint64) (*ClusterPoint, error) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := cluster.New(env, cluster.Config{
		Shards:  shards,
		Tenants: tenants,
		QoS:     qos.Default(),
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	mixCfg, err := defaultClusterMix(tenants, requests, seed)
	if err != nil {
		return nil, err
	}
	mix, err := workload.GenerateMix(mixCfg)
	if err != nil {
		return nil, err
	}
	res := c.RunMix(mix)
	env.Run()

	pt := &ClusterPoint{Shards: shards}
	w, r := telemetry.NewSummary(), telemetry.NewSummary()
	var firstAt, lastAt time.Duration
	for _, o := range res.Outcomes {
		if o.Read {
			if o.OK {
				pt.ReadsOK++
				r.Add(o.Latency)
			} else {
				pt.ReadsFailed++
			}
			continue
		}
		switch {
		case o.OK:
			pt.Acked++
			w.Add(o.Latency)
			if firstAt == 0 || o.At < firstAt {
				firstAt = o.At
			}
			if o.At > lastAt {
				lastAt = o.At
			}
		case o.Shed:
			pt.Shed++
		default:
			pt.Failed++
		}
	}
	pt.WMean, pt.WP50, pt.WP99 = w.Mean(), w.Quantile(0.50), w.Quantile(0.99)
	pt.RMean, pt.RP50, pt.RP99 = r.Mean(), r.Quantile(0.50), r.Quantile(0.99)
	if span := lastAt - firstAt; span > 0 {
		pt.AckedPerSec = float64(pt.Acked) / span.Seconds()
	}
	return pt, nil
}

// String renders the sweep as a table.
func (r *ClusterResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster scale-out: %d tenants, %d requests, multi-tenant mix\n",
		r.Tenants, r.Requests)
	fmt.Fprintf(&b, "%7s %7s %5s %7s %8s %8s %8s %8s %8s %9s\n",
		"shards", "acked", "shed", "failed", "readsOK", "w-mean", "w-p99", "r-mean", "r-p99", "acked/s")
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%7d %7d %5d %7d %8d %8s %8s %8s %8s %9.0f\n",
			pt.Shards, pt.Acked, pt.Shed, pt.Failed, pt.ReadsOK,
			fmtMS(pt.WMean), fmtMS(pt.WP99), fmtMS(pt.RMean), fmtMS(pt.RP99), pt.AckedPerSec)
	}
	return b.String()
}

// ClusterKillConfig parameterizes the kill-one-shard experiment.
type ClusterKillConfig struct {
	Shards    int           // default 4
	Tenants   int           // default 48
	Requests  int           // default 1200
	KillShard int           // default 1
	KillAt    time.Duration // default 250ms
	Seed      uint64
}

func (cfg ClusterKillConfig) withDefaults() ClusterKillConfig {
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Tenants == 0 {
		cfg.Tenants = 48
	}
	if cfg.Requests == 0 {
		cfg.Requests = 1200
	}
	if cfg.KillShard == 0 {
		cfg.KillShard = 1
	}
	if cfg.KillAt == 0 {
		cfg.KillAt = 250 * time.Millisecond
	}
	return cfg
}

// ClusterKillResult is the outcome of the kill-one-shard run.
type ClusterKillResult struct {
	Cfg ClusterKillConfig
	// Checked/Lost are the readback verification: every acked slot is read
	// through the routed path and matched against its acked payloads. Lost
	// must be zero.
	Checked, Lost int64
	// Acked/DegradedAcks/Shed/Failed partition the mix's writes.
	Acked, DegradedAcks, Shed, Failed int64
	// Failovers/Hedges/RebuildCopies expose the failure machinery at work.
	Failovers, Hedges, RebuildCopies int64
	// SurvivorP99Pre/Post are acked-write p99 on requests NOT involving the
	// killed shard, before and after the kill: the blast-radius bound.
	SurvivorP99Pre, SurvivorP99Post time.Duration
	// InvolvedP99Post is acked-write p99 on requests routed through the
	// killed shard's pair after the kill — the degraded path's tail.
	InvolvedP99Post time.Duration
	// FinalStates is each shard's health state at end of run.
	FinalStates []string
	// KilledShardGen is the killed slot's hardware generation at end of run
	// (1 after one replacement).
	KilledShardGen int
}

// ClusterKillOneShard runs the acceptance experiment: a shard dies mid-mix,
// the run completes degraded, the replacement rebuilds, and every
// acknowledged write is verified readable.
func ClusterKillOneShard(cfg ClusterKillConfig) (*ClusterKillResult, error) {
	cfg = cfg.withDefaults()
	if cfg.KillShard < 0 || cfg.KillShard >= cfg.Shards {
		return nil, fmt.Errorf("kill shard %d out of range [0,%d)", cfg.KillShard, cfg.Shards)
	}
	env := sim.NewEnv()
	defer env.Close()
	c, err := cluster.New(env, cluster.Config{
		Shards:  cfg.Shards,
		Tenants: cfg.Tenants,
		QoS:     qos.Default(),
		Scenario: fault.ShardScenario{
			Events: []fault.ShardEvent{{Shard: cfg.KillShard, At: cfg.KillAt}},
		},
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	mixCfg, err := defaultClusterMix(cfg.Tenants, cfg.Requests, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mix, err := workload.GenerateMix(mixCfg)
	if err != nil {
		return nil, err
	}
	res := c.RunMix(mix)
	env.Run()

	out := &ClusterKillResult{Cfg: cfg}
	survPre, survPost, invPost := telemetry.NewSummary(), telemetry.NewSummary(), telemetry.NewSummary()
	for _, o := range res.Outcomes {
		if o.Read {
			continue
		}
		switch {
		case o.OK:
			out.Acked++
		case o.Shed:
			out.Shed++
			continue
		default:
			out.Failed++
			continue
		}
		involved := c.Involved(o.Tenant, cfg.KillShard)
		switch {
		case o.At < cfg.KillAt && !involved:
			survPre.Add(o.Latency)
		case !involved:
			survPost.Add(o.Latency)
		case o.At >= cfg.KillAt:
			invPost.Add(o.Latency)
		}
	}
	st := c.Stats()
	out.DegradedAcks = st.DegradedAcks
	out.Failovers = st.Failovers
	out.Hedges = st.Hedges
	out.RebuildCopies = st.RebuildCopies
	out.SurvivorP99Pre = survPre.Quantile(0.99)
	out.SurvivorP99Post = survPost.Quantile(0.99)
	out.InvolvedP99Post = invPost.Quantile(0.99)
	for i := 0; i < c.NumShards(); i++ {
		out.FinalStates = append(out.FinalStates, c.ShardState(i).String())
	}
	out.KilledShardGen = c.ShardGen(cfg.KillShard)

	env.Go("verify", func(p *sim.Proc) {
		out.Checked, out.Lost = c.VerifyAcked(p)
	})
	env.Run()
	return out, nil
}

// String renders the kill experiment's verdict.
func (r *ClusterKillResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kill-one-shard: %d shards, shard %d killed at %s into a %d-request mix\n",
		r.Cfg.Shards, r.Cfg.KillShard, r.Cfg.KillAt, r.Cfg.Requests)
	fmt.Fprintf(&b, "  writes: %d acked (%d degraded), %d shed, %d failed\n",
		r.Acked, r.DegradedAcks, r.Shed, r.Failed)
	fmt.Fprintf(&b, "  failure path: %d failovers, %d hedges, %d slots rebuilt\n",
		r.Failovers, r.Hedges, r.RebuildCopies)
	fmt.Fprintf(&b, "  survivor write p99: %s ms pre-kill, %s ms post-kill; involved post-kill %s ms\n",
		fmtMS(r.SurvivorP99Pre), fmtMS(r.SurvivorP99Post), fmtMS(r.InvolvedP99Post))
	fmt.Fprintf(&b, "  final shard states: %s (killed shard generation %d)\n",
		strings.Join(r.FinalStates, " "), r.KilledShardGen)
	fmt.Fprintf(&b, "  verification: %d acked slots read back, %d lost\n", r.Checked, r.Lost)
	return b.String()
}
