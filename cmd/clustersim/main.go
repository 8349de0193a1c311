// Command clustersim drives the sharded Trail cluster: a multi-tenant mix
// over N shards with failure detection, write-both replication, hedged
// reads, and background rebuild. Two modes:
//
//   - Chaos run (default): one cluster under an optional fault scenario
//     (-chaos "shardkill=1@250ms" or "slowshard=0@100ms:500000"), with the
//     run summary, health outcomes, and an optional acked-write readback
//     (-verify — a nonzero exit if any acknowledged write is lost). All
//     stdout and every export is byte-deterministic for a fixed seed, so
//     CI byte-compares two same-seed runs end to end.
//   - Sweep (-sweep "2,4,8"): the scale-out experiment — throughput and
//     tail latency vs shard count. (cmd/trailbench writes the same sweep's
//     cluster/shards=N rows into the benchfmt gate file.)
//
// Usage:
//
//	clustersim [-shards N>=2] [-seed N] [-chaos SCENARIO] [-verify]
//	           [-explain-tail F] [-metrics FILE]
//	           [-timeline DUR] [-timeline-out FILE]
//	           [-sweep N,N,...]   (each N >= 2)
//
// Both modes drive experiments.ClusterMix: 1200 requests (per sweep cell)
// from 48 tenants, 30% reads, zipf-skewed tenant popularity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tracklog/internal/cluster"
	"tracklog/internal/experiments"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/workload"
)

// requests is the number of mix arrivals in a chaos run and in each sweep
// cell.
const requests = 1200

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shards := fs.Int("shards", 4, "shard count (at least 2)")
	seed := fs.Uint64("seed", 1, "workload and fault seed")
	chaos := fs.String("chaos", "", `fault scenario, e.g. "shardkill=1@250ms" or "slowshard=0@100ms:500000"`)
	verify := fs.Bool("verify", false, "read back every acked slot; exit 1 on any loss")
	tailFrac := fs.Float64("explain-tail", 0, "explain the slowest fraction of requests (0 disables)")
	metricsOut := fs.String("metrics", "", "telemetry export (Prometheus text)")
	tlBucket := fs.Duration("timeline", 0, "timeline bucket width (0 disables)")
	tlOut := fs.String("timeline-out", "cluster-timeline.csv", "timeline export path for -timeline (CSV)")
	sweep := fs.String("sweep", "", "comma-separated shard counts, each at least 2: run the scale-out sweep instead of a chaos run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "clustersim:", err)
		return 1
	}

	if *sweep != "" {
		counts, err := parseCounts(*sweep)
		if err != nil {
			return fail(err)
		}
		res, err := experiments.Cluster(counts, requests, *seed)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, res.String())
		return 0
	}

	if *shards < 2 {
		return fail(fmt.Errorf("-shards %d: a cluster needs at least 2 shards", *shards))
	}
	scenario, err := fault.ParseShardScenario(*chaos)
	if err != nil {
		return fail(err)
	}
	mixCfg := experiments.ClusterMix(requests, *seed)
	env := sim.NewEnv()
	defer env.Close()
	c, err := cluster.New(env, cluster.Config{
		Shards:   *shards,
		Tenants:  mixCfg.Tenants,
		QoS:      qos.Default(),
		Scenario: scenario,
		Seed:     *seed,
	})
	if err != nil {
		return fail(err)
	}

	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
		env.SetMetrics(reg)
		c.RegisterMetrics(reg)
	}
	var agg *timeline.Aggregator
	if *tlBucket > 0 {
		agg = timeline.New(*tlBucket)
		env.SetTimeline(agg)
		c.SetTimeline(agg)
	}
	var rec *span.Recorder
	if *tailFrac > 0 {
		rec = span.NewRecorder(0)
		c.SetRecorder(rec)
	}

	mix, err := workload.GenerateMix(mixCfg)
	if err != nil {
		return fail(err)
	}
	c.RunMix(mix)
	env.Run()

	st := c.Stats()
	fmt.Fprintf(stdout, "cluster: %d shards, %d tenants, %d requests, seed %d, chaos %q\n",
		*shards, mixCfg.Tenants, requests, *seed, *chaos)
	fmt.Fprintf(stdout, "writes: %d issued, %d acked (%d degraded), %d shed, %d failed\n",
		st.Writes, st.WritesAcked, st.DegradedAcks, st.WritesShed, st.WritesFailed)
	fmt.Fprintf(stdout, "reads: %d issued, %d ok, %d failed, %d failovers, %d hedges (%d won)\n",
		st.Reads, st.ReadsOK, st.ReadsFailed, st.Failovers, st.Hedges, st.HedgeWins)
	fmt.Fprintf(stdout, "health: %d deaths, %d recoveries, %d slots rebuilt (%d retries)\n",
		st.ShardDeaths, st.Recoveries, st.RebuildCopies, st.RebuildRetries)
	states := make([]string, 0, c.NumShards())
	for i := 0; i < c.NumShards(); i++ {
		states = append(states, fmt.Sprintf("%d:%s/g%d", i, c.ShardState(i), c.ShardGen(i)))
	}
	fmt.Fprintf(stdout, "shards: %s\n", strings.Join(states, " "))

	lost := int64(0)
	if *verify {
		var checked int64
		env.Go("verify", func(p *sim.Proc) { checked, lost = c.VerifyAcked(p) })
		env.Run()
		fmt.Fprintf(stdout, "verify: %d acked slots read back, %d lost\n", checked, lost)
	}

	if reg != nil {
		if err := reg.WriteFile(*metricsOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "metrics: %d series -> %s\n", reg.Len(), *metricsOut)
	}
	if agg != nil {
		agg.Finish(int64(env.Now()))
		if err := agg.WriteFile(*tlOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "timeline: bucket %v -> %s\n", time.Duration(agg.BucketNS()), *tlOut)
	}
	if rec != nil {
		fmt.Fprint(stdout, span.ExplainTail(rec.Requests(), *tailFrac))
	}

	if lost > 0 {
		fmt.Fprintf(stderr, "clustersim: %d acknowledged writes lost\n", lost)
		return 1
	}
	return 0
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad shard count %q: %w", part, err)
		}
		if n < 2 {
			return nil, fmt.Errorf("shard count %d in -sweep: a cluster needs at least 2 shards", n)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("empty -sweep")
	}
	return counts, nil
}
