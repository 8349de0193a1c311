package experiments

// Cluster experiments: scaling a Trail deployment out to N shards. The sweep
// measures throughput and tail latency as the same offered load spreads over
// more shards. The failure path (a shard killed mid-run) is clustersim's
// -chaos run and internal/cluster's kill-one-shard tests.

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/cluster"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
	"tracklog/internal/workload"
)

// ClusterMix is the multi-tenant mix every cluster run drives (the sweep
// here and clustersim's chaos run): 48 zipf-skewed tenants, 30% reads, 15%
// background and 10% interactive traffic.
func ClusterMix(requests int, seed uint64) workload.MixConfig {
	return workload.MixConfig{
		Tenants:           48,
		Requests:          requests,
		ReadFraction:      0.3,
		Interarrival:      400 * time.Microsecond,
		ZipfS:             0.9,
		BackgroundWeight:  15,
		InteractiveWeight: 10,
		Seed:              seed,
	}
}

// ClusterPoint is one cell of the scale-out sweep.
type ClusterPoint struct {
	Shards int
	// Acked/Shed/Failed partition the writes; ReadsOK/ReadsFailed the reads.
	Acked, Shed, Failed  int64
	ReadsOK, ReadsFailed int64
	// WMean/WP50/WP99 summarize acked-write latency, RMean/RP99 served
	// reads.
	WMean, WP50, WP99 time.Duration
	RMean, RP99       time.Duration
	// AckedPerSec is acked-write throughput over the span of arrivals.
	AckedPerSec float64
}

// ClusterResult is the full shard-count sweep.
type ClusterResult struct {
	Tenants, Requests int
	Points            []ClusterPoint
}

// Cluster sweeps shard counts under ClusterMix's offered load, at
// clusterRequests arrivals per cell and the gate's seed.
func Cluster(shardCounts []int) (*ClusterResult, error) {
	mixCfg := ClusterMix(clusterRequests, gateSeed)
	res := &ClusterResult{Tenants: mixCfg.Tenants, Requests: clusterRequests}
	for _, n := range shardCounts {
		pt, err := clusterCell(n, mixCfg)
		if err != nil {
			return nil, fmt.Errorf("cluster %d shards: %w", n, err)
		}
		res.Points = append(res.Points, *pt)
	}
	return res, nil
}

func clusterCell(shards int, mixCfg workload.MixConfig) (*ClusterPoint, error) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := cluster.New(env, cluster.Config{
		Shards:  shards,
		Tenants: mixCfg.Tenants,
		QoS:     qos.Default(),
		Seed:    mixCfg.Seed,
	})
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
	pt.RMean, pt.RP99 = r.Mean(), r.Quantile(0.99)
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

// Entries returns one gate entry per shard count: cluster/shards=N, with
// acked-write latency and throughput.
func (r *ClusterResult) Entries() []benchfmt.Entry {
	var out []benchfmt.Entry
	for _, pt := range r.Points {
		out = append(out, benchfmt.Entry{
			Name:   fmt.Sprintf("cluster/shards=%d", pt.Shards),
			Count:  pt.Acked,
			MeanUS: benchfmt.US(pt.WMean),
			P50US:  benchfmt.US(pt.WP50),
			P99US:  benchfmt.US(pt.WP99),
			Rates:  map[string]float64{"acked_per_sec": pt.AckedPerSec},
			Counters: map[string]int64{
				"acked":        pt.Acked,
				"shed":         pt.Shed,
				"write_failed": pt.Failed,
				"reads_ok":     pt.ReadsOK,
			},
		})
	}
	return out
}
