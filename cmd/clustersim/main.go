// Command clustersim drives the sharded Trail cluster: a multi-tenant mix
// over N shards with failure detection, write-both replication, hedged
// reads, and background rebuild, under an optional fault scenario (-chaos
// "shardkill=1@250ms" or "slowshard=0@100ms:500000"). It prints the run
// summary, health outcomes, and an optional acked-write readback (-verify —
// a nonzero exit if any acknowledged write is lost). -out DIR writes the
// run's artefact set into DIR, the files cmd/rundiff reads: trace.json,
// metrics.prom, timeline.csv (10 ms buckets, per-shard health lanes
// included) and spans.json; rundiff DIR prints that run's span budget and
// explains its slowest requests. All stdout and every artefact is
// byte-deterministic for a fixed seed, so CI byte-compares two same-seed
// runs end to end. The scale-out sweep over shard counts is the
// catalogue's cluster section (reproduce -only cluster).
//
// Usage:
//
//	clustersim [-shards N>=2] [-seed N] [-chaos SCENARIO] [-verify] [-out DIR]
//
// It drives experiments.ClusterMix: 1200 requests from 48 tenants, 30%
// reads, zipf-skewed tenant popularity.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tracklog/internal/cluster"
	"tracklog/internal/experiments"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/workload"
)

// requests is the number of mix arrivals in a run.
const requests = 1200

// timelineBucket is the width of timeline.csv's virtual-time buckets.
const timelineBucket = 10 * time.Millisecond

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shards := fs.Int("shards", 4, "shard count (at least 2)")
	seed := fs.Uint64("seed", 1, "workload and fault seed")
	chaos := fs.String("chaos", "", `fault scenario, e.g. "shardkill=1@250ms" or "slowshard=0@100ms:500000"`)
	verify := fs.Bool("verify", false, "read back every acked slot; exit 1 on any loss")
	out := fs.String("out", "", "write the run's artefact set (trace.json, metrics.prom, timeline.csv, spans.json) into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "clustersim:", err)
		return 1
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

	var in rig.Instruments
	if *out != "" {
		in = rig.NewInstruments(timelineBucket)
		in.AttachKernel(env)
		c.RegisterMetrics(in.Registry)
		c.SetTimeline(in.Timeline)
		c.SetRecorder(in.Recorder)
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

	if *out != "" {
		if err := in.WriteDir(*out, env.Now(), nil, stdout); err != nil {
			return fail(err)
		}
	}

	if lost > 0 {
		fmt.Fprintf(stderr, "clustersim: %d acknowledged writes lost\n", lost)
		return 1
	}
	return 0
}
