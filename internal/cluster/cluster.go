// Package cluster shards the Trail driver into an N-way cluster serving
// thousands of simulated tenants — the ROADMAP's "millions of users" layer.
// Each shard is an independent Trail world (its own log/data disk pair,
// fault plan, and QoS policy) on the shared virtual-time environment; a
// deterministic consistent-hash router places every tenant on a primary and
// one replica shard. Writes go to both copies (write-both), reads go to the
// primary with hedging and failover to the replica, and a per-shard health
// state machine (healthy → suspect → dead → recovering → healthy) driven by
// virtual-time heartbeats turns device death into bounded failover instead
// of data loss: after a shard dies, every previously acknowledged write is
// still readable via its replica, and a background rebuild replays the dead
// shard's acked writes from the surviving copy as Background-class traffic
// competing with foreground under the usual QoS machinery.
//
// Everything is deterministic: the ring is sorted slices (no map
// iteration), randomness comes only from sim.Rand, and two same-seed runs —
// including kill-one-shard chaos runs — are byte-identical, which is what
// lets CI gate the failover story with cmp.
package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/fault"
	"tracklog/internal/qos"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/timeline"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

// Config describes a sharded Trail cluster.
type Config struct {
	// Shards is the number of Trail shards (default 4, minimum 2: every
	// tenant needs a primary and a distinct replica).
	Shards int
	// Tenants is the number of simulated tenants routed over the shards
	// (default 64), each with workload.BlocksPerTenant addressable blocks.
	Tenants int
	// WriteSize is the bytes per block write; must be a sector multiple
	// (default 1024, the paper's small-write size).
	WriteSize int
	// HeartbeatInterval is the gap between health probes per shard
	// (default 20ms); ProbeTimeout is each probe's deadline (default 60ms).
	HeartbeatInterval time.Duration
	ProbeTimeout      time.Duration
	// ReplaceAfter is how long after death a replacement shard is
	// provisioned and rebuild starts (default 150ms).
	ReplaceAfter time.Duration
	// HedgeAfter is the read-hedging delay: if the primary has not answered
	// by then, the replica is asked too and the first answer wins
	// (0 selects the default 25ms; a negative value disables hedging).
	HedgeAfter time.Duration
	// QoS is each shard's admission policy (nil = fully permissive); the
	// shard's Trail driver otherwise runs with the default trail.Config.
	QoS *qos.Policy
	// Scenario schedules whole-shard chaos (kills, derates).
	Scenario fault.ShardScenario
	// Seed feeds the shards' fault plans.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Tenants == 0 {
		c.Tenants = 64
	}
	if c.WriteSize == 0 {
		c.WriteSize = 1024
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 60 * time.Millisecond
	}
	if c.ReplaceAfter == 0 {
		c.ReplaceAfter = 150 * time.Millisecond
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	return c
}

// Placement is one tenant's routing decision: the primary and replica
// shards plus the tenant's base LBA on each (tenant regions are allocated
// contiguously per shard in tenant order).
type Placement struct {
	Primary, Replica       int
	PrimaryLBA, ReplicaLBA int64
}

// ringEntry is one vnode point on the hash ring.
type ringEntry struct {
	hash  uint64
	shard int
}

// procNames are a tenant's request process names, copies primary first.
type procNames struct {
	write, read [2]string
	hedge       string
}

// slot is the cluster's bookkeeping for one (tenant, block) address: the
// acked version count, the issue counter feeding payload generation, and the
// sequence number of every acknowledged write, in ack order: payloadFor turns
// each back into a payload a read may legally return. Overlapping writes to
// a slot are acked in simulator order, but a concurrent pair's winner is
// ambiguous, so verification matches any acked candidate like trailsim's.
type slot struct {
	version int64
	issued  int64
	cands   []int64
}

// Stats are the cluster's cumulative counters.
type Stats struct {
	Writes         int64 // write requests admitted to the router
	WritesAcked    int64 // acknowledged (at least one durable copy)
	DegradedAcks   int64 // acked with one copy down (device failed)
	WritesShed     int64 // refused with ErrOverload (cluster or shard QoS)
	WritesFailed   int64 // failed for any other reason
	Reads          int64
	ReadsOK        int64
	ReadsFailed    int64
	Failovers      int64 // reads redirected to the replica after primary failure
	Hedges         int64 // hedged replica reads issued
	HedgeWins      int64 // hedged reads that beat the primary
	ShardDeaths    int64
	Recoveries     int64 // shards returned to Healthy after rebuild
	RebuildCopies  int64 // slots replayed onto a replacement shard
	RebuildRetries int64 // rebuild copy attempts refused and retried
}

// Cluster is a sharded Trail deployment on one virtual-time environment.
type Cluster struct {
	env    *sim.Env
	cfg    Config
	ring   []ringEntry
	place  []Placement
	shards []*Shard
	slots  [][]slot
	spb    int // sectors per block
	stats  Stats
	// spanNames are the shards' span device names ("shardN"), and names
	// each tenant's request process names, built once.
	spanNames []string
	names     []procNames
	// freeWrites holds write ops whose copies have completed.
	freeWrites []*writeOp

	rec *span.Recorder
	agg *timeline.Aggregator
	// Cluster-level timeline marks (nil when no aggregator attached).
	tlFailover *timeline.Mark
	tlHedge    *timeline.Mark
	tlRebuild  *timeline.Mark
	tlShed     *timeline.Mark
}

// New builds the cluster on env: rings, placements, and one Trail world per
// shard, with any scheduled chaos (Config.Scenario) armed. The heartbeat
// daemons start immediately; nothing else runs until env.Run.
func New(env *sim.Env, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 shards for replication, got %d", cfg.Shards)
	}
	if cfg.WriteSize%512 != 0 || cfg.WriteSize <= 0 {
		return nil, fmt.Errorf("cluster: WriteSize %d is not a positive sector multiple", cfg.WriteSize)
	}
	for _, e := range cfg.Scenario.Events {
		if e.Shard >= cfg.Shards {
			return nil, fmt.Errorf("cluster: scenario targets shard %d of %d", e.Shard, cfg.Shards)
		}
	}

	c := &Cluster{
		env:  env,
		cfg:  cfg,
		ring: buildRing(cfg.Shards),
		spb:  cfg.WriteSize / 512,
	}

	// Route every tenant and allocate its contiguous block regions on the
	// primary and replica shards, in tenant order — pure slice arithmetic,
	// so placement is identical across runs and immune to map ordering.
	next := make([]int64, cfg.Shards)
	region := int64(workload.BlocksPerTenant * c.spb)
	c.place = make([]Placement, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		pri, rep := placeTenant(c.ring, t)
		c.place[t] = Placement{
			Primary: pri, Replica: rep,
			PrimaryLBA: next[pri], ReplicaLBA: next[rep],
		}
		next[pri] += region
		next[rep] += region
	}

	c.slots = make([][]slot, cfg.Tenants)
	c.names = make([]procNames, cfg.Tenants)
	for t := range c.slots {
		c.slots[t] = make([]slot, workload.BlocksPerTenant)
		n := &c.names[t]
		for i, s := range [2]int{c.place[t].Primary, c.place[t].Replica} {
			n.write[i] = fmt.Sprintf("cluster/w-t%d-s%d", t, s)
			n.read[i] = fmt.Sprintf("cluster/r-t%d-s%d", t, s)
		}
		n.hedge = fmt.Sprintf("cluster/hedge-t%d", t)
	}

	for i := 0; i < cfg.Shards; i++ {
		sh, err := c.provision(i, 0)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
		c.spanNames = append(c.spanNames, fmt.Sprintf("shard%d", i))
	}
	c.armScenario()
	c.startHeartbeats()
	return c, nil
}

// provision builds one shard generation: the standard rig — a fresh
// formatted log disk, a fresh data disk, and a Trail driver over them — on
// the cluster's environment. Generation 0 additionally arms the kill plan
// from the chaos scenario on both drives; replacement hardware is healthy by
// construction.
func (c *Cluster) provision(idx, gen int) (*Shard, error) {
	hw := rig.Config{Env: c.env, Trail: trail.Config{QoS: c.cfg.QoS}, FaultSeed: (c.cfg.Seed ^ 0xC10C0DE) + uint64(idx)}
	if killAt := c.cfg.Scenario.KillFor(idx); gen == 0 && killAt > 0 {
		hw.Faults = &fault.Config{FailAt: killAt}
	}
	r, err := rig.New(hw)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard %d: %w", idx, err)
	}
	sh := &Shard{idx: idx, gen: gen, log: r.LogDisk, data: r.DataDisks[0], drv: r.Trail, dev: r.Trail.Dev(0)}
	if c.agg != nil {
		c.observeShardDisks(sh)
	}
	return sh, nil
}

// armScenario schedules slowshard derates. Kills need no process — the
// fault plans attached at provision time reject commands past the instant —
// but a derate mutates live disk parameters, so a daemon sleeps until the
// event and flips the knob (daemon: chaos alone must not keep the
// simulation alive).
func (c *Cluster) armScenario() {
	for _, e := range c.cfg.Scenario.Events {
		if e.Kill() {
			continue
		}
		e := e
		c.env.GoDaemon(fmt.Sprintf("cluster/derate%d", e.Shard), func(p *sim.Proc) {
			p.Sleep(e.At)
			sh := c.shards[e.Shard]
			sh.log.SetSeekDeratePPM(e.DeratePPM)
			sh.data.SetSeekDeratePPM(e.DeratePPM)
		})
	}
}

// Shard accessors for experiments and the CLI.

// NumShards returns the configured shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// ShardState returns shard idx's current health state.
func (c *Cluster) ShardState(idx int) State { return c.shards[idx].state }

// ShardGen returns shard idx's hardware generation (0 = original; each
// replacement after a death increments it).
func (c *Cluster) ShardGen(idx int) int { return c.shards[idx].gen }

// MaxLogQueue returns shard idx's current driver's high-water log queue.
func (c *Cluster) MaxLogQueue(idx int) int { return c.shards[idx].drv.Stats().MaxLogQueue }

// Stats returns a copy of the cluster counters.
func (c *Cluster) Stats() Stats { return c.stats }

// Placement returns tenant t's routing decision.
func (c *Cluster) Placement(t int) Placement { return c.place[t] }

// Involved reports whether tenant t has a copy on shard idx.
func (c *Cluster) Involved(t, idx int) bool {
	return c.place[t].Primary == idx || c.place[t].Replica == idx
}

// capacityLost reports whether any shard is short of Healthy — the trigger
// for shedding Background traffic at the cluster edge.
func (c *Cluster) capacityLost() bool {
	for _, sh := range c.shards {
		if sh.state != Healthy {
			return true
		}
	}
	return false
}

// slotLBA returns the slot's base LBA on the given shard (which must hold a
// copy for the tenant).
func (c *Cluster) slotLBA(t, block, shardIdx int) int64 {
	pl := c.place[t]
	base := pl.PrimaryLBA
	if shardIdx == pl.Replica {
		base = pl.ReplicaLBA
	}
	return base + int64(block*c.spb)
}

// payloadFor fills buf with the deterministic payload of one write attempt,
// seeded by the FNV-1a hash of "t<tenant>/b<block>/s<seq>", and returns it.
func payloadFor(buf []byte, tenant, block int, seq int64) []byte {
	var name [64]byte
	b := append(name[:0], 't')
	b = strconv.AppendInt(b, int64(tenant), 10)
	b = append(b, "/b"...)
	b = strconv.AppendInt(b, int64(block), 10)
	b = append(b, "/s"...)
	b = strconv.AppendInt(b, seq, 10)
	h := fnv.New64a() // inlined: the hash state stays on the stack
	h.Write(b)
	x := h.Sum64()
	for i := range buf {
		// xorshift64* keeps the fill cheap and seed-determined.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		buf[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
	}
	return buf
}

// vnodes is the number of ring points per shard; more vnodes smooth tenant
// placement.
const vnodes = 16

// buildRing hashes vnodes points per shard onto a 64-bit ring, sorted by
// (hash, shard) so ties cannot reorder across runs.
func buildRing(shards int) []ringEntry {
	ring := make([]ringEntry, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{hash: hash64(fmt.Sprintf("shard-%d-vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	return ring
}

// placeTenant walks the ring clockwise from the tenant's hash: the first
// vnode's shard is the primary, the next vnode owned by a different shard
// is the replica.
func placeTenant(ring []ringEntry, tenant int) (primary, replica int) {
	h := hash64(fmt.Sprintf("tenant-%d", tenant))
	i := sort.Search(len(ring), func(k int) bool { return ring[k].hash >= h })
	if i == len(ring) {
		i = 0
	}
	primary = ring[i].shard
	for j := 1; j <= len(ring); j++ {
		if e := ring[(i+j)%len(ring)]; e.shard != primary {
			return primary, e.shard
		}
	}
	// Unreachable with >= 2 shards; keep the router total anyway.
	return primary, primary
}

// hash64 is FNV-1a with a splitmix64 avalanche finalizer. Bare FNV-1a
// barely diffuses trailing-byte differences — "tenant-0".."tenant-9" hash
// within a 2^44-wide arc of the 2^64 ring, which collapses placement onto
// one vnode. The finalizer spreads them uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ReqOutcome is one mix request's result, indexed like the input stream so
// aggregation is deterministic regardless of completion order.
type ReqOutcome struct {
	At      time.Duration
	Tenant  int
	Read    bool
	Class   blockdev.Class
	Latency time.Duration
	OK      bool
	Shed    bool
	Expired bool
	Failed  bool // hard failure (not shed, not expired)
}

// MixResult collects the outcome of RunMix; valid after env.Run returns.
type MixResult struct {
	Outcomes []ReqOutcome
}

// RunMix plays the mix against the cluster open loop: one cluster/arrivals
// process sleeps to each request's At instant (counted from when it starts)
// and spawns that request's own process there, so a request costs the kernel
// a process only while it is in flight. Requests due at the same instant
// arrive in index order. Call env.Run afterwards; the result is filled in as
// requests complete.
func (c *Cluster) RunMix(reqs []workload.MixRequest) *MixResult {
	res := &MixResult{Outcomes: make([]ReqOutcome, len(reqs))}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].At < reqs[order[b]].At })
	c.env.Go("cluster/arrivals", func(p *sim.Proc) {
		start := p.Now()
		for _, i := range order {
			if wait := start.Add(reqs[i].At).Sub(p.Now()); wait > 0 {
				p.Sleep(wait)
			}
			c.env.Go(fmt.Sprintf("cluster/req%d", i), func(p *sim.Proc) {
				c.runMixRequest(p, reqs[i], &res.Outcomes[i])
			})
		}
	})
	return res
}

// runMixRequest issues one mix request and records its outcome in o.
func (c *Cluster) runMixRequest(p *sim.Proc, r workload.MixRequest, o *ReqOutcome) {
	start := p.Now()
	var err error
	if r.Read {
		_, err = c.Read(p, r.Tenant, r.Block, r.Class)
	} else {
		err = c.Write(p, r.Tenant, r.Block, r.Class)
	}
	o.At, o.Tenant, o.Read, o.Class = r.At, r.Tenant, r.Read, r.Class
	o.Latency = time.Duration(p.Now().Sub(start))
	switch {
	case err == nil:
		o.OK = true
	case blockdev.IsShed(err):
		o.Shed = true
	case blockdev.IsExpired(err):
		o.Expired = true
	default:
		o.Failed = true
	}
}

// VerifyAcked reads back every slot with at least one acknowledged write
// through the normal routed read path and checks the data matches one of
// the acked payloads. It returns the number of slots checked and
// the number lost (unreadable or mismatched) — the kill-one-shard
// acceptance bar is lost == 0.
func (c *Cluster) VerifyAcked(p *sim.Proc) (checked, lost int64) {
	want := make([]byte, c.cfg.WriteSize)
	for t := range c.slots {
		for b := range c.slots[t] {
			sl := &c.slots[t][b]
			if sl.version == 0 {
				continue
			}
			checked++
			data, err := c.Read(p, t, b, blockdev.ClassInteractive)
			if err != nil {
				lost++
				continue
			}
			if !c.matchesAcked(data, want, t, b) {
				lost++
			}
		}
	}
	return checked, lost
}

// matchesAcked reports whether data is the payload of one of the slot's
// acknowledged writes, generating each into scratch, newest first.
func (c *Cluster) matchesAcked(data, scratch []byte, tenant, block int) bool {
	cands := c.slots[tenant][block].cands
	for i := len(cands) - 1; i >= 0; i-- {
		if bytes.Equal(data, payloadFor(scratch, tenant, block, cands[i])) {
			return true
		}
	}
	return false
}

// errAllCopiesFailed wraps device failure for the no-surviving-copy case.
func errAllCopiesFailed(op string, tenant, block int) error {
	return fmt.Errorf("cluster: %s tenant %d block %d: all copies failed: %w",
		op, tenant, block, blockdev.ErrDeviceFailed)
}
