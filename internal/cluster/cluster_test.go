package cluster

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/trace"
	"tracklog/internal/workload"
)

func TestClusterWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 2, Tenants: 8})
	if err != nil {
		t.Fatal(err)
	}
	env.Go("client", func(p *sim.Proc) {
		for tn := 0; tn < 8; tn++ {
			if err := c.Write(p, tn, 0, blockdev.ClassNormal); err != nil {
				t.Errorf("write tenant %d: %v", tn, err)
			}
		}
		for tn := 0; tn < 8; tn++ {
			data, err := c.Read(p, tn, 0, blockdev.ClassNormal, nil)
			if err != nil {
				t.Errorf("read tenant %d: %v", tn, err)
				continue
			}
			if !c.matchesAcked(data, make([]byte, blockSize), tn, 0) {
				t.Errorf("tenant %d read back wrong data", tn)
			}
		}
	})
	env.Run()
	st := c.Stats()
	if st.WritesAcked != 8 || st.ReadsOK != 8 {
		t.Fatalf("stats = %+v, want 8 acked / 8 reads ok", st)
	}
	if st.DegradedAcks != 0 || st.Failovers != 0 {
		t.Fatalf("healthy run saw degradation: %+v", st)
	}
}

// killMix builds the canonical kill-one-shard world: 4 shards, shard 1
// killed mid-run, a multi-tenant mix driving it.
func killMix(t *testing.T, env *sim.Env, seed uint64) (*Cluster, []workload.MixRequest, time.Duration) {
	t.Helper()
	const killAtMS = 250
	killAt := killAtMS * time.Millisecond
	c, mix := clusterMix(t, env, seed, fault.ShardScenario{
		Events: []fault.ShardEvent{{Shard: 1, At: killAt}},
	})
	return c, mix, killAt
}

// clusterMix builds the world clustersim runs: 4 shards under the default
// QoS and the given scenario, a 1 200-request multi-tenant mix driving it.
func clusterMix(t *testing.T, env *sim.Env, seed uint64, scenario fault.ShardScenario) (*Cluster, []workload.MixRequest) {
	t.Helper()
	c, err := New(env, Config{
		Shards:   4,
		Tenants:  48,
		QoS:      qos.Default(),
		Scenario: scenario,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.GenerateMix(workload.MixConfig{
		Tenants:           48,
		Requests:          1200,
		ReadFraction:      0.3,
		Interarrival:      400 * time.Microsecond,
		ZipfS:             0.9,
		BackgroundWeight:  15,
		InteractiveWeight: 10,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, mix
}

// Cluster spans tile their requests: in clustersim's seed-11 mix, healthy
// and with shard 1 killed, every request's timed children lie inside it
// without overlapping, and no group's budget has unattributed time. The
// healthy run holds the two cases that once had none: writes one copy
// refused while the other ran, and a read whose hedge won while the primary
// was still out.
func TestSpansTileRequests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scenario fault.ShardScenario
	}{
		{"healthy", fault.ShardScenario{}},
		{"shardkill", fault.ShardScenario{Events: []fault.ShardEvent{{Shard: 1, At: 250 * time.Millisecond}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			c, mix := clusterMix(t, env, 11, tc.scenario)
			rec := span.NewRecorder(0)
			c.SetRecorder(rec)
			c.RunMix(mix)
			env.Run()
			if st := c.Stats(); tc.name == "healthy" && (st.WritesShed == 0 || st.HedgeWins == 0) {
				t.Fatalf("healthy run: %d writes shed, %d hedge wins; want both", st.WritesShed, st.HedgeWins)
			}
			reqs := rec.Requests()
			for _, r := range reqs {
				var timed []span.Span
				for _, s := range r.Spans {
					if s.Dur() > 0 {
						timed = append(timed, s)
					}
				}
				slices.SortFunc(timed, func(a, b span.Span) int { return cmp.Compare(a.Start, b.Start) })
				at := r.Start
				for _, s := range timed {
					if s.Start < at || s.End > r.End {
						t.Errorf("request #%d %s/%s [%d,%d]: %s [%d,%d] overlaps a sibling or leaves the request",
							r.ID, r.Driver, r.Kind, r.Start, r.End, s.Phase, s.Start, s.End)
					}
					at = s.End
				}
			}
			for _, g := range span.Analyze(reqs).Groups {
				if g.Unattributed != 0 {
					t.Errorf("%s: %v unattributed", g.Key, g.Unattributed)
				}
			}
		})
	}
}

// The robustness acceptance test: kill a shard mid-run; every acknowledged
// write must remain readable, the shard must come back healthy through the
// rebuild, and the failure must be visible in the failover/rebuild
// counters and span markers.
func TestClusterKillOneShardZeroAckedWriteLoss(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c, mix, killAt := killMix(t, env, 11)
	rec := span.NewRecorder(0)
	c.SetRecorder(rec)

	res := c.RunMix(mix)
	env.Run()

	st := c.Stats()
	if st.ShardDeaths != 1 {
		t.Fatalf("shard deaths = %d, want 1 (stats %+v)", st.ShardDeaths, st)
	}
	if st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1: the killed shard never came back (stats %+v)", st.Recoveries, st)
	}
	if got := c.ShardState(1); got != Healthy {
		t.Fatalf("shard 1 final state = %v, want healthy", got)
	}
	if got := c.ShardGen(1); got != 1 {
		t.Fatalf("shard 1 generation = %d, want 1 (one replacement)", got)
	}
	if st.RebuildCopies == 0 {
		t.Fatal("rebuild copied no slots — the replacement came back empty")
	}
	if st.Failovers == 0 {
		t.Fatal("no read failovers despite a dead primary window")
	}
	if st.DegradedAcks == 0 {
		t.Fatal("no degraded acks despite writes during the outage")
	}
	if st.WritesAcked == 0 {
		t.Fatal("nothing acked")
	}

	// The blast-radius bound: acked writes that touch neither copy on the
	// killed shard may slow while the cluster absorbs the failure, but their
	// p99 stays within an order of magnitude of the healthy tail.
	pre, post := telemetry.NewSummary(), telemetry.NewSummary()
	for _, o := range res.Outcomes {
		if o.Read || !o.OK || c.Involved(o.Tenant, 1) {
			continue
		}
		if o.At < killAt {
			pre.Add(o.Latency)
		} else {
			post.Add(o.Latency)
		}
	}
	if pre.Count() == 0 || post.Count() == 0 {
		t.Fatalf("uninvolved acked writes: %d before the kill, %d after", pre.Count(), post.Count())
	}
	preP99, postP99 := pre.Quantile(0.99), post.Quantile(0.99)
	if postP99 > 10*preP99 {
		t.Errorf("uninvolved write p99 blew up: pre-kill %v, post-kill %v", preP99, postP99)
	}
	if postP99 > 500*time.Millisecond {
		t.Errorf("uninvolved write p99 unbounded: %v", postP99)
	}

	// Surviving shards must not grow unbounded queues: the QoS bound is the
	// ceiling.
	for i := 0; i < c.NumShards(); i++ {
		if q := c.MaxLogQueue(i); q > qos.Default().MaxQueue {
			t.Errorf("shard %d max log queue %d exceeds QoS bound %d", i, q, qos.Default().MaxQueue)
		}
	}

	// Zero acknowledged-write loss, verified by readback through the
	// normal routed read path.
	var checked, lost int64
	env.Go("verify", func(p *sim.Proc) { checked, lost = c.VerifyAcked(p) })
	env.Run()
	if checked == 0 {
		t.Fatal("verification checked nothing")
	}
	if lost != 0 {
		t.Fatalf("LOST %d of %d acknowledged slots after failover", lost, checked)
	}

	// The failure must be attributable: at least one span carries the
	// failover marker and at least one rebuild span exists.
	var sawFailover, sawRebuild bool
	for _, r := range rec.Requests() {
		for _, s := range r.Spans {
			switch s.Phase {
			case span.PFailover:
				sawFailover = true
			case span.PRebuild:
				sawRebuild = true
			}
		}
	}
	if !sawFailover {
		t.Error("no span carries the failover marker")
	}
	if !sawRebuild {
		t.Error("no rebuild span recorded")
	}
}

// Two same-seed kill-one-shard runs must agree on every outcome — the
// property cmd/clustersim's golden test byte-compares end to end — and on the
// outcome stream recorded when RunMix still spawned every request up front:
// spawning at arrival changes what the kernel carries, not what a client sees.
// The digest was re-recorded when the rebuild stopped copying a slot while a
// write to it was out.
func TestClusterKillRunDeterministic(t *testing.T) {
	run := func() (string, Stats) {
		env := sim.NewEnv()
		defer env.Close()
		c, mix, _ := killMix(t, env, 23)
		res := c.RunMix(mix)
		env.Run()
		var sum string
		for i, o := range res.Outcomes {
			sum += fmt.Sprintf("%d:%v/%v/%v/%v/%v\n", i, o.Latency, o.OK, o.Shed, o.Expired, o.Failed)
		}
		return sum, c.Stats()
	}
	sumA, stA := run()
	sumB, stB := run()
	if sumA != sumB {
		t.Fatal("same-seed kill runs produced different outcome streams")
	}
	if stA != stB {
		t.Fatalf("same-seed kill runs produced different stats:\n%+v\n%+v", stA, stB)
	}
	h := fnv.New64a()
	h.Write([]byte(sumA))
	if got, want := h.Sum64(), uint64(0xad46994cb1e7de3d); got != want {
		t.Fatalf("outcome stream digest %#016x, want %#016x (spawn-up-front RunMix, seed 23)", got, want)
	}
}

// RunMix spawns each request at its due instant: in At order whatever the
// order of the slice, in index order among requests due together, with
// outcomes still indexed like the input.
func TestRunMixArrivalOrder(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	tr := trace.New(1 << 12)
	env.SetTracer(tr)
	c, err := New(env, Config{Shards: 2, Tenants: 4})
	if err != nil {
		t.Fatal(err)
	}
	mix := []workload.MixRequest{
		{At: 2 * time.Millisecond, Tenant: 0},
		{At: 1 * time.Millisecond, Tenant: 1},
		{At: 2 * time.Millisecond, Tenant: 2},
		{At: 2 * time.Millisecond, Tenant: 3, Read: true},
	}
	var base sim.Time
	var res *MixResult
	env.Go("late-start", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond) // arrivals count from RunMix, not from 0
		base = p.Now()
		res = c.RunMix(mix)
	})
	env.Run()

	var spawned []string
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KProcStart && strings.HasPrefix(ev.Track, "cluster/req") {
			spawned = append(spawned, fmt.Sprintf("%s@%v", ev.Track, sim.Time(ev.At).Sub(base)))
		}
	}
	want := []string{"cluster/req1@1ms", "cluster/req0@2ms", "cluster/req2@2ms", "cluster/req3@2ms"}
	if fmt.Sprint(spawned) != fmt.Sprint(want) {
		t.Fatalf("requests spawned as %v, want %v", spawned, want)
	}
	for i, o := range res.Outcomes {
		if !o.OK || o.At != mix[i].At || o.Tenant != mix[i].Tenant || o.Read != mix[i].Read {
			t.Errorf("outcome %d = %+v, want an OK result for %+v", i, o, mix[i])
		}
	}
}

// While capacity is lost, Background traffic is shed at the cluster edge;
// Normal traffic keeps flowing with degraded acks.
func TestClusterDegradedModeShedsBackground(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	killAt := 50 * time.Millisecond
	c, err := New(env, Config{
		Shards:  4,
		Tenants: 16,
		QoS:     qos.Default(),
		Scenario: fault.ShardScenario{
			Events: []fault.ShardEvent{{Shard: 2, At: killAt}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for tn := 0; tn < 16; tn++ {
		if c.Involved(tn, 2) {
			victim = tn
			break
		}
	}
	if victim < 0 {
		t.Fatal("no tenant routed to shard 2")
	}
	env.Go("client", func(p *sim.Proc) {
		// Healthy phase: Background flows.
		if err := c.Write(p, victim, 0, blockdev.ClassBackground); err != nil {
			t.Errorf("healthy background write: %v", err)
		}
		p.Sleep(killAt + 10*time.Millisecond - time.Duration(p.Now()))
		// Touch the dead shard to trip detection, then prove the edge.
		if err := c.Write(p, victim, 0, blockdev.ClassNormal); err != nil {
			t.Errorf("degraded normal write should ack on the survivor: %v", err)
		}
		if got := c.ShardState(2); got != Dead {
			t.Fatalf("shard 2 state = %v after device failure, want dead", got)
		}
		err := c.Write(p, victim, 0, blockdev.ClassBackground)
		if !blockdev.IsShed(err) {
			t.Errorf("degraded background write err = %v, want shed", err)
		}
		// Reads on the victim tenant fail over to the surviving copy.
		if _, err := c.Read(p, victim, 0, blockdev.ClassNormal, nil); err != nil {
			t.Errorf("degraded read should fail over: %v", err)
		}
	})
	env.Run()
	st := c.Stats()
	if st.DegradedAcks == 0 {
		t.Errorf("no degraded ack recorded: %+v", st)
	}
	if st.WritesShed == 0 {
		t.Errorf("no shed recorded: %+v", st)
	}
	if st.Failovers == 0 {
		t.Errorf("no failover recorded: %+v", st)
	}
}

// Hedged reads fire once the primary runs past the hedge deadline and the
// replica can win the race. Four more readers crowd the primary's queue, so
// a read waits there well past the 25ms hedge deadline, while the replica
// answers within the data disk's ~11ms rotation. The victim tenant must have
// distinct primary/replica LBAs: all shard disks spin in
// rotational lockstep (identical worlds built at t=0), so same-LBA copies
// sit at the same angle and the hedge's head start can never be made up.
// The slowshard scenario rides along to prove the mid-run derate actually
// lands on the running shard's disks.
func TestClusterSlowShardHedging(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	derateAt := 10 * time.Millisecond
	const deratePPM = 6_000_000
	c, err := New(env, Config{
		Shards:  4,
		Tenants: 16,
		Scenario: fault.ShardScenario{
			Events: []fault.ShardEvent{{Shard: 0, At: derateAt, DeratePPM: deratePPM}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for tn := 0; tn < 16; tn++ {
		pl := c.Placement(tn)
		if pl.Primary == 0 && pl.PrimaryLBA != pl.ReplicaLBA {
			victim = tn
			break
		}
	}
	if victim < 0 {
		t.Fatal("no tenant has shard 0 as primary with offset replica LBA")
	}
	env.Go("client", func(p *sim.Proc) {
		if err := c.Write(p, victim, 0, blockdev.ClassNormal); err != nil {
			t.Fatalf("prime write: %v", err)
		}
		p.Sleep(50*time.Millisecond - time.Duration(p.Now()))
		if got := c.shards[0].data.Params().SeekDeratePPM; got != deratePPM {
			t.Errorf("shard 0 data disk derate = %d, want %d — slowshard event never landed", got, deratePPM)
		}
		if got := c.shards[1].data.Params().SeekDeratePPM; got != 0 {
			t.Errorf("shard 1 data disk derate = %d, want 0", got)
		}
		stop := false
		crowd(c, primaryOn(c, 0), 4, &stop)
		for i := 0; i < 10; i++ {
			if _, err := c.Read(p, victim, 0, blockdev.ClassNormal, nil); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			p.Sleep(3 * time.Millisecond)
		}
		stop = true
	})
	env.Run()
	st := c.Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedged reads behind a crowded primary: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedges fired but the replica never won: %+v", st)
	}
}
