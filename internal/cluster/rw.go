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
// per shard, primary first. Ops come off Cluster.freeWrites. The caller, which
// waits for both copies, is an op's last holder and puts it back, which is
// safe because a shard write keeps no reference to the payload
// (blockdev.Device.Write).
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
			a.end = start
			a.done.Trigger()
		}
	}
	for i := range attempts {
		attempts[i].done.Wait(p)
	}
	end := p.Now()

	// Tile the copy window into exact PSubWrite segments by completion
	// (ties to the lower shard), whatever each copy's outcome: [start,
	// firstEnd] is both copies in flight, charged to the first finisher, and
	// [firstEnd, end] the straggler. A skipped copy ends at start, so it has
	// none.
	first, last := &attempts[0], &attempts[1]
	if last.end < first.end || (last.end == first.end && last.shard < first.shard) {
		first, last = last, first
	}
	rq.ChildPair(span.PSubWrite, int64(start), int64(first.end), int64(end), int64(first.shard), int64(last.shard))

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

	sl.version++
	sl.cands = append(sl.cands, seq)
	c.stats.WritesAcked++
	if hardFails > 0 {
		c.stats.DegradedAcks++
	}
	rq.Finish(int64(end), false)
	return nil
}

// readOp is one read's bookkeeping: its race, the bodies of the processes
// that run it (primary attempt, replica attempt, hedge timer), bound once,
// and one buffer for each attempt to read into, made with the op. Ops come
// off Cluster.freeReads. holders counts the caller and every process still
// using the op; the last of them to let go puts it back. An attempt holds
// the op until its read returns, so a losing attempt that lands after the
// race fills its own buffer, and a recycled op's buffers are never being
// filled.
type readOp struct {
	readRace
	c                       *Cluster
	primary, replica, hedge func(*sim.Proc)
	priBuf, repBuf          []byte
	holders                 int
}

// readRace is one read's routing and the shared state of its
// primary/hedge/failover race. Its shards are the ones routed to when the
// read was issued.
type readRace struct {
	pri, rep       *Shard
	priLBA, repLBA int64
	class          blockdev.Class
	names          *procNames

	done      sim.Event
	won       bool
	data      []byte // the winning attempt's bytes, in its op buffer
	viaHedge  bool   // winner was the hedged replica attempt
	started   int    // attempts launched
	failed    int    // attempts failed
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

// newReadOp takes an op off the free list, or makes one.
func (c *Cluster) newReadOp() *readOp {
	if n := len(c.freeReads); n > 0 {
		op := c.freeReads[n-1]
		c.freeReads = c.freeReads[:n-1]
		return op
	}
	c.readOps++
	n := c.cfg.WriteSize
	buf := make([]byte, 2*n)
	op := &readOp{c: c, priBuf: buf[:n:n], repBuf: buf[n:]}
	op.primary, op.replica, op.hedge = op.readPrimary, op.readReplica, op.hedgeTimer
	return op
}

// release drops one holder. The last one zeroes the race, so a free op pins
// no buffer or shard, and puts the op back.
func (op *readOp) release() {
	op.holders--
	if op.holders == 0 {
		op.readRace = readRace{}
		op.c.freeReads = append(op.c.freeReads, op)
	}
}

// Read routes one block read through the primary with hedging and replica
// failover, and returns the block in into's array, or in a new slice when
// into's capacity is short of a block. The winning attempt reads into its op's buffer, and
// Read copies the bytes out: the op goes back to the free list once its
// attempts are done with it.
func (c *Cluster) Read(p *sim.Proc, tenant, block int, class blockdev.Class, into []byte) ([]byte, error) {
	if err := c.checkSlot(tenant, block); err != nil {
		return nil, err
	}
	c.stats.Reads++
	pl := c.place[tenant]
	start := p.Now()
	rq := c.rec.Start(span.KRead, "cluster", c.spanNames[pl.Primary],
		c.slotLBA(tenant, block, pl.Primary), c.spb, int64(start))

	op := c.newReadOp()
	op.readRace = readRace{
		pri: c.shards[pl.Primary], rep: c.shards[pl.Replica],
		priLBA: c.slotLBA(tenant, block, pl.Primary), repLBA: c.slotLBA(tenant, block, pl.Replica),
		class: class, names: &c.names[tenant],
	}
	op.done.Init(c.env)
	op.holders = 1 // the caller
	defer op.release()

	if op.pri.serving() {
		op.started++
		op.holders++
		c.env.Go(op.names.read[0], op.primary)
		// Hedge timer: a daemon (it must not keep the simulation alive on
		// its own) that fires the replica if the primary is still out.
		if c.cfg.HedgeAfter > 0 && op.rep.serving() {
			op.holders++
			c.env.GoDaemon(op.names.hedge, op.hedge)
		}
	} else {
		// Primary not serving: straight failover.
		op.launchReplica(start, false)
	}

	if op.started == 0 {
		rq.Finish(int64(start), true)
		c.stats.ReadsFailed++
		return nil, errAllCopiesFailed("read", tenant, block)
	}
	op.done.Wait(p)
	end := p.Now()

	// Span assembly, deterministic regardless of which attempt won. The
	// winner owns the time both attempts were out: a hedge that won charges
	// the primary only up to the hedge, a primary still in flight included,
	// and a primary that won charges the replica nothing.
	priEnd, repEnd := op.priEnd, op.repEnd
	switch {
	case op.viaHedge:
		priEnd = op.hedgeAt
	case op.won && !op.failover:
		repEnd = op.repStart
	}
	rq.ChildAB(span.PSubRead, int64(op.priStart), int64(priEnd), int64(pl.Primary), 0)
	rq.ChildAB(span.PSubRead, int64(op.repStart), int64(repEnd), int64(pl.Replica), 0)
	if op.failover {
		c.stats.Failovers++
		c.tlFailover.Inc(int64(op.failAt))
		rq.Point(span.PFailover, int64(op.failAt), int64(pl.Replica), 0)
	}
	if op.hedged {
		c.stats.Hedges++
		c.tlHedge.Inc(int64(op.hedgeAt))
		won := int64(0)
		if op.won && op.viaHedge {
			won = 1
			c.stats.HedgeWins++
		}
		rq.Point(span.PHedge, int64(op.hedgeAt), int64(pl.Replica), won)
	}

	if !op.won {
		c.stats.ReadsFailed++
		rq.Finish(int64(end), true)
		if op.lastErr != nil {
			return nil, fmt.Errorf("cluster: read tenant %d block %d: %w", tenant, block, op.lastErr)
		}
		return nil, errAllCopiesFailed("read", tenant, block)
	}
	c.stats.ReadsOK++
	rq.Finish(int64(end), false)
	return append(into[:0], op.data...), nil
}

// launchReplica starts the replica attempt, as a hedge or a failover, unless
// it is already out or the replica is not serving.
func (op *readOp) launchReplica(at sim.Time, hedge bool) {
	if op.replicaOn || !op.rep.serving() {
		return
	}
	op.replicaOn = true
	op.started++
	if hedge {
		op.hedged = true
		op.hedgeAt = at
	} else {
		op.failover = true
		op.failAt = at
	}
	op.holders++
	op.c.env.Go(op.names.read[1], op.replica)
}

// readPrimary is the primary attempt's process body.
func (op *readOp) readPrimary(rp *sim.Proc) {
	op.priStart = rp.Now()
	data, err := op.pri.dev.ReadOpts(rp, op.priLBA, op.c.spb, blockdev.Options{Class: op.class, Into: op.priBuf})
	op.priEnd = rp.Now()
	if err != nil {
		// Primary failed mid-race: fail over immediately if the replica is
		// not already being asked.
		op.c.observeRequestError(op.pri, err, rp.Now())
		if !op.won && !op.replicaOn {
			op.failed++
			op.lastErr = err
			op.launchReplica(rp.Now(), false)
			if !op.replicaOn { // replica unserving: race is over
				op.done.Trigger()
			}
			op.release()
			return
		}
	}
	op.finishAttempt(data, err, op.pri, rp.Now(), false)
	op.release()
}

// readReplica is the replica attempt's process body.
func (op *readOp) readReplica(rp *sim.Proc) {
	op.repStart = rp.Now()
	data, err := op.rep.dev.ReadOpts(rp, op.repLBA, op.c.spb, blockdev.Options{Class: op.class, Into: op.repBuf})
	op.repEnd = rp.Now()
	op.finishAttempt(data, err, op.rep, rp.Now(), true)
	op.release()
}

// hedgeTimer is the hedge timer's process body: it fires the replica if the
// primary has not answered within HedgeAfter.
func (op *readOp) hedgeTimer(hp *sim.Proc) {
	hp.Sleep(op.c.cfg.HedgeAfter)
	if !op.done.Fired() && !op.won {
		op.launchReplica(hp.Now(), true)
	}
	op.release()
}

// finishAttempt resolves one read attempt against the race: first success
// wins; when every launched attempt has failed, the race fails.
func (op *readOp) finishAttempt(data []byte, err error, sh *Shard, at sim.Time, viaReplica bool) {
	if err == nil {
		if !op.won {
			op.won = true
			op.data = data
			op.viaHedge = viaReplica && op.hedged && !op.failover
			op.done.Trigger()
		}
		return
	}
	if viaReplica {
		op.c.observeRequestError(sh, err, at)
	}
	op.failed++
	op.lastErr = err
	if op.failed >= op.started && !op.won {
		op.done.Trigger()
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
