package cluster

// The routed request paths.
//
// Writes are write-both: the payload goes to the primary and replica copies
// in parallel, and the client is acknowledged only when the result cannot
// lose data — every copy that did not make it durable must have failed with
// a device failure (the copy is gone, not merely refused). A shed or
// expired copy write fails the whole request instead: acking it would leave
// a single copy whose loss the client was never told about.
//
// Reads are read-primary: the primary serves, a hedge fires the replica
// after HedgeAfter if the primary is slow, and a primary failure (or a
// primary already marked dead) fails over to the replica. First answer
// wins; the race is resolved through a sim.Event, so it is deterministic.

import (
	"errors"
	"fmt"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/workload"
)

// writeOp is one write-both request's bookkeeping: its payload and one copy
// per shard, primary first. Ops come off Cluster.freeWrites and go back once
// both copies have completed, which is safe because a shard write keeps no
// reference to the payload (blockdev.Device.Write).
type writeOp struct {
	payload []byte
	copies  [2]shardCopy
}

// shardCopy is one shard's write of a writeOp. Its process body, run, is
// bound once, when the op is made.
type shardCopy struct {
	c       *Cluster
	payload []byte
	run     func(*sim.Proc)

	sh    *Shard
	shard int
	lba   int64
	class blockdev.Class
	err   error
	end   sim.Time
	done  sim.Event
}

// write is a copy's process body.
func (w *shardCopy) write(wp *sim.Proc) {
	w.err = w.sh.dev.WriteOpts(wp, w.lba, w.c.spb, w.payload, blockdev.Options{Class: w.class})
	w.end = wp.Now()
	if w.err != nil {
		w.c.observeRequestError(w.sh, w.err, wp.Now())
	}
	w.done.Trigger()
}

// newWriteOp takes an op off the free list, or makes one.
func (c *Cluster) newWriteOp() *writeOp {
	if n := len(c.freeWrites); n > 0 {
		op := c.freeWrites[n-1]
		c.freeWrites = c.freeWrites[:n-1]
		return op
	}
	op := &writeOp{payload: make([]byte, c.cfg.WriteSize)}
	for i := range op.copies {
		w := &op.copies[i]
		w.c, w.payload, w.run = c, op.payload, w.write
	}
	return op
}

// Write routes one block write: payload generation, cluster-edge admission,
// parallel write-both, and the ack decision.
func (c *Cluster) Write(p *sim.Proc, tenant, block int, class blockdev.Class) error {
	if err := c.checkSlot(tenant, block); err != nil {
		return err
	}
	c.stats.Writes++
	pl := c.place[tenant]
	sl := &c.slots[tenant][block]
	seq := sl.issued
	sl.issued++

	start := p.Now()
	rq := c.rec.Start(span.KWrite, "cluster", c.spanNames[pl.Primary],
		c.slotLBA(tenant, block, pl.Primary), c.spb, int64(start))

	// Cluster-edge admission: while capacity is lost, Background traffic
	// is shed before it touches any shard — the survivors' queues belong
	// to foreground and rebuild.
	if class == blockdev.ClassBackground && c.capacityLost() {
		c.stats.WritesShed++
		c.tlShed.Inc(int64(start))
		rq.Point(span.PShed, int64(start), int64(pl.Primary), 0)
		rq.Finish(int64(start), true)
		return fmt.Errorf("cluster: background write shed while capacity lost: %w", blockdev.ErrOverload)
	}

	op := c.newWriteOp()
	defer func() { c.freeWrites = append(c.freeWrites, op) }()
	payloadFor(op.payload, tenant, block, seq)

	// Launch the live copies in parallel and join on their events. Spawn
	// order and event wakeup order are deterministic. A dead shard's copy
	// is never attempted: it fails at once, so waiting on it never blocks.
	attempts := &op.copies
	for i, shardIdx := range [2]int{pl.Primary, pl.Replica} {
		a := &attempts[i]
		a.sh, a.shard, a.class = c.shards[shardIdx], shardIdx, class
		a.lba, a.err = c.slotLBA(tenant, block, shardIdx), nil
		a.done.Init(c.env)
		if a.sh.writable() {
			c.env.Go(c.names[tenant].write[i], a.run)
		} else {
			a.err = fmt.Errorf("cluster: shard %d dead: %w", shardIdx, blockdev.ErrDeviceFailed)
			a.done.Trigger()
		}
	}
	for i := range attempts {
		attempts[i].done.Wait(p)
	}
	end := p.Now()

	// Ack decision: at least one durable copy, and every miss must be a
	// device failure.
	ok, hardFails := 0, 0
	var softErr error
	for i := range attempts {
		a := &attempts[i]
		switch {
		case a.err == nil:
			ok++
		case errIsDeviceFailed(a.err):
			hardFails++
		default:
			softErr = a.err
		}
	}
	switch {
	case softErr != nil:
		// A copy was refused (shed, expired, ...): no ack, the client
		// retries with full knowledge. Tear down the span with the
		// matching marker.
		if blockdev.IsShed(softErr) {
			c.stats.WritesShed++
			c.tlShed.Inc(int64(end))
			rq.Point(span.PShed, int64(end), int64(pl.Primary), 0)
		} else if blockdev.IsExpired(softErr) {
			c.stats.WritesFailed++
			rq.Point(span.PDeadline, int64(end), 0, 0)
		} else {
			c.stats.WritesFailed++
		}
		rq.Finish(int64(end), true)
		return fmt.Errorf("cluster: write tenant %d block %d not acknowledged: %w", tenant, block, softErr)
	case ok == 0:
		c.stats.WritesFailed++
		rq.Finish(int64(end), true)
		return errAllCopiesFailed("write", tenant, block)
	}

	// Acknowledged. Tile the copy window into exact PSubWrite segments by
	// completion (ties to the lower shard): [start, firstEnd] is both copies
	// in flight, charged to the first finisher, and [firstEnd, lastEnd] the
	// straggler; a failed or skipped copy has none.
	first, last := &attempts[0], &attempts[1]
	if first.err != nil || (last.err == nil && (last.end < first.end || (last.end == first.end && last.shard < first.shard))) {
		first, last = last, first
	}
	rq.ChildAB(span.PSubWrite, int64(start), int64(first.end), int64(first.shard), 0)
	if last.err == nil {
		rq.ChildAB(span.PSubWrite, int64(first.end), int64(last.end), int64(last.shard), 0)
	}

	sl.version++
	sl.cands = append(sl.cands, seq)
	c.stats.WritesAcked++
	if hardFails > 0 {
		c.stats.DegradedAcks++
	}
	rq.Finish(int64(end), false)
	return nil
}

// readRace is the shared state of one read's primary/hedge/failover race.
type readRace struct {
	done      sim.Event
	won       bool
	data      []byte
	from      int  // winning shard
	viaHedge  bool // winner was the hedged replica attempt
	started   int  // attempts launched
	failed    int  // attempts failed
	lastErr   error
	replicaOn bool // replica attempt launched (failover or hedge)
	failover  bool
	failAt    sim.Time
	hedged    bool
	hedgeAt   sim.Time
	priStart  sim.Time
	priEnd    sim.Time
	repStart  sim.Time
	repEnd    sim.Time
}

// Read routes one block read through the primary with hedging and replica
// failover.
func (c *Cluster) Read(p *sim.Proc, tenant, block int, class blockdev.Class) ([]byte, error) {
	if err := c.checkSlot(tenant, block); err != nil {
		return nil, err
	}
	c.stats.Reads++
	pl := c.place[tenant]
	pri, rep := c.shards[pl.Primary], c.shards[pl.Replica]
	start := p.Now()
	rq := c.rec.Start(span.KRead, "cluster", c.spanNames[pl.Primary],
		c.slotLBA(tenant, block, pl.Primary), c.spb, int64(start))

	race := &readRace{}
	race.done.Init(c.env)
	names := &c.names[tenant]

	launchReplica := func(at sim.Time, hedge bool) {
		if race.replicaOn || !rep.serving() {
			return
		}
		race.replicaOn = true
		race.started++
		if hedge {
			race.hedged = true
			race.hedgeAt = at
		} else {
			race.failover = true
			race.failAt = at
		}
		c.env.Go(names.read[1], func(rp *sim.Proc) {
			race.repStart = rp.Now()
			data, err := rep.dev.ReadOpts(rp, c.slotLBA(tenant, block, pl.Replica), c.spb,
				blockdev.Options{Class: class})
			race.repEnd = rp.Now()
			c.finishAttempt(race, pl.Replica, data, err, rep, rp.Now(), true)
		})
	}

	if pri.serving() {
		race.started++
		c.env.Go(names.read[0], func(rp *sim.Proc) {
			race.priStart = rp.Now()
			data, err := pri.dev.ReadOpts(rp, c.slotLBA(tenant, block, pl.Primary), c.spb,
				blockdev.Options{Class: class})
			race.priEnd = rp.Now()
			if err != nil {
				// Primary failed mid-race: fail over immediately if the
				// replica is not already being asked.
				c.observeRequestError(pri, err, rp.Now())
				if !race.won && !race.replicaOn {
					race.failed++
					race.lastErr = err
					launchReplica(rp.Now(), false)
					if !race.replicaOn { // replica unserving: race is over
						race.done.Trigger()
					}
					return
				}
			}
			c.finishAttempt(race, pl.Primary, data, err, pri, rp.Now(), false)
		})
		// Hedge timer: a daemon (it must not keep the simulation alive on
		// its own) that fires the replica if the primary is still out.
		if c.cfg.HedgeAfter > 0 && rep.serving() {
			c.env.GoDaemon(names.hedge, func(hp *sim.Proc) {
				hp.Sleep(c.cfg.HedgeAfter)
				if !race.done.Fired() && !race.won {
					launchReplica(hp.Now(), true)
				}
			})
		}
	} else {
		// Primary not serving: straight failover.
		launchReplica(start, false)
	}

	if race.started == 0 {
		rq.Finish(int64(start), true)
		c.stats.ReadsFailed++
		return nil, errAllCopiesFailed("read", tenant, block)
	}
	race.done.Wait(p)
	end := p.Now()

	// Span assembly, deterministic regardless of which copy won.
	if race.priEnd > race.priStart {
		rq.ChildAB(span.PSubRead, int64(race.priStart), int64(race.priEnd), int64(pl.Primary), 0)
	}
	if race.repEnd > race.repStart {
		rq.ChildAB(span.PSubRead, int64(race.repStart), int64(race.repEnd), int64(pl.Replica), 0)
	}
	if race.failover {
		c.stats.Failovers++
		c.tlFailover.Inc(int64(race.failAt))
		rq.Point(span.PFailover, int64(race.failAt), int64(pl.Replica), 0)
	}
	if race.hedged {
		c.stats.Hedges++
		c.tlHedge.Inc(int64(race.hedgeAt))
		won := int64(0)
		if race.won && race.viaHedge {
			won = 1
			c.stats.HedgeWins++
		}
		rq.Point(span.PHedge, int64(race.hedgeAt), int64(pl.Replica), won)
	}

	if !race.won {
		c.stats.ReadsFailed++
		rq.Finish(int64(end), true)
		if race.lastErr != nil {
			return nil, fmt.Errorf("cluster: read tenant %d block %d: %w", tenant, block, race.lastErr)
		}
		return nil, errAllCopiesFailed("read", tenant, block)
	}
	c.stats.ReadsOK++
	rq.Finish(int64(end), false)
	return race.data, nil
}

// finishAttempt resolves one read attempt against the race: first success
// wins; when every launched attempt has failed, the race fails.
func (c *Cluster) finishAttempt(race *readRace, shardIdx int, data []byte, err error, sh *Shard, at sim.Time, viaReplica bool) {
	if err == nil {
		if !race.won {
			race.won = true
			race.data = data
			race.from = shardIdx
			race.viaHedge = viaReplica && race.hedged && !race.failover
			race.done.Trigger()
		}
		return
	}
	if viaReplica {
		c.observeRequestError(sh, err, at)
	}
	race.failed++
	race.lastErr = err
	if race.failed >= race.started && !race.won {
		race.done.Trigger()
	}
}

func (c *Cluster) checkSlot(tenant, block int) error {
	if tenant < 0 || tenant >= c.cfg.Tenants {
		return fmt.Errorf("cluster: tenant %d out of range [0,%d)", tenant, c.cfg.Tenants)
	}
	if block < 0 || block >= workload.BlocksPerTenant {
		return fmt.Errorf("cluster: block %d out of range [0,%d)", block, workload.BlocksPerTenant)
	}
	return nil
}

func errIsDeviceFailed(err error) bool {
	return err != nil && errors.Is(err, blockdev.ErrDeviceFailed)
}
