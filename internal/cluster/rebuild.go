package cluster

// Background shard rebuild: when a replacement shard comes up Recovering,
// every slot the dead shard held a copy of is replayed from the surviving
// replica. Rebuild traffic is ClassBackground — it competes with foreground
// under the shards' QoS admission (it gets shed first when queues fill) and
// under the write-back throttle, exactly like any other deferrable flow.
//
// Foreground writes keep flowing to the Recovering shard while the rebuild
// runs (write-both includes it), which opens a stale-overwrite race: the
// rebuild could read an old survivor copy and land it after a newer
// foreground write. The per-slot version counter closes it — each copy is
// redone until the slot's version is unchanged across the read and the
// write, so the last landed data always reflects the newest acked version.

import (
	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/workload"
)

// rebuild replays sh's slots from their surviving copies. It runs inside
// the replacement process (live: the simulation must not end mid-rebuild).
func (c *Cluster) rebuild(p *sim.Proc, sh *Shard) {
	for t := 0; t < c.cfg.Tenants; t++ {
		if !c.Involved(t, sh.idx) {
			continue
		}
		other := c.place[t].Primary
		if other == sh.idx {
			other = c.place[t].Replica
		}
		for b := 0; b < workload.BlocksPerTenant; b++ {
			c.rebuildSlot(p, sh, t, b, other)
		}
	}
}

// rebuildSlot copies one slot from the survivor until it lands a current
// version. Refusals (shed, expired, timeouts) back off and retry; a hard
// survivor failure gives up on the slot — with two copies gone there is
// nothing left to replay.
func (c *Cluster) rebuildSlot(p *sim.Proc, sh *Shard, tenant, block, survivorIdx int) {
	sl := &c.slots[tenant][block]
	if sl.version == 0 {
		return
	}
	survivor := c.shards[survivorIdx]
	srcLBA := c.slotLBA(tenant, block, survivorIdx)
	dstLBA := c.slotLBA(tenant, block, sh.idx)
	start := p.Now()
	rq := c.rec.Start(span.KWriteback, "cluster", c.spanNames[sh.idx],
		dstLBA, c.spb, int64(start))

	copied := false
	for {
		v := sl.version
		data, err := survivor.dev.ReadOpts(p, srcLBA, c.spb, blockdev.Options{Class: blockdev.ClassBackground})
		if err != nil {
			if !c.rebuildRetry(p, survivor, err) {
				break
			}
			continue
		}
		if sl.version != v {
			continue // raced a foreground write mid-read; take the newer data
		}
		if err := sh.dev.WriteOpts(p, dstLBA, c.spb, data, blockdev.Options{Class: blockdev.ClassBackground}); err != nil {
			if !c.rebuildRetry(p, sh, err) {
				break
			}
			continue
		}
		if sl.version == v {
			copied = true
			break // landed data is current
		}
		// A foreground write acked mid-copy; redo with its data.
	}

	end := p.Now()
	rq.ChildAB(span.PRebuild, int64(start), int64(end), sl.version, int64(survivorIdx))
	rq.Finish(int64(end), !copied)
	if copied {
		c.stats.RebuildCopies++
		c.tlRebuild.Inc(int64(end))
	}
}

// rebuildRetry classifies a rebuild copy error: soft refusals back off and
// report true (retry); hard failures report false (give up) and feed the
// detector.
func (c *Cluster) rebuildRetry(p *sim.Proc, sh *Shard, err error) bool {
	if blockdev.IsShed(err) || blockdev.IsExpired(err) || blockdev.IsTransient(err) {
		c.stats.RebuildRetries++
		p.Sleep(retryBackoff)
		return true
	}
	c.observeRequestError(sh, err, p.Now())
	return false
}
