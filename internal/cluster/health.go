package cluster

// Per-shard health state machine. Two signal sources feed it: a heartbeat
// daemon that issues a small deadline-bounded probe read every
// heartbeatInterval, and the request path, which reports every error it
// sees. Hard device failures (blockdev.ErrDeviceFailed) kill a shard
// immediately; soft failures (missed probe deadlines from a stuck-slow
// shard) accumulate into Suspect and then Dead. Death schedules a
// replacement: after replaceAfter a fresh disk pair and driver are
// provisioned, the shard turns Recovering while the rebuild replays its
// acked slots from the surviving replicas, and it returns to Healthy when
// the copy completes.

import (
	"errors"
	"fmt"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/timeline"
	"tracklog/internal/trail"
)

// State is a shard's health.
type State uint8

const (
	// Healthy shards serve reads and writes.
	Healthy State = iota
	// Suspect shards have missed probes but still serve; reads against
	// them hedge as usual.
	Suspect
	// Dead shards serve nothing; writes degrade to the surviving copy and
	// reads fail over to the replica.
	Dead
	// Recovering shards accept writes (keeping fresh data current) and run
	// the background rebuild, but do not serve reads until it completes.
	Recovering

	numStates
)

// suspectAfter and deadAfter are the consecutive probe failures (missed
// deadlines count as failures) that move a shard to Suspect and to Dead.
const (
	suspectAfter = 2
	deadAfter    = 4
)

// heartbeatInterval is the gap between a shard's health probes and
// probeTimeout each probe's deadline; replaceAfter is how long after death a
// replacement shard is provisioned and its rebuild starts.
const (
	heartbeatInterval = 20 * time.Millisecond
	probeTimeout      = 60 * time.Millisecond
	replaceAfter      = 150 * time.Millisecond
)

var stateNames = [numStates]string{"healthy", "suspect", "dead", "recovering"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state?"
}

// Shard is one Trail world behind the router.
type Shard struct {
	idx int
	gen int // hardware generation; bumped by each replacement

	log, data *disk.Disk
	drv       *trail.Driver
	dev       *trail.DataDev

	state      State
	probeFails int // consecutive failed probes / soft request errors

	lane *timeline.Lane // optional health-state lane (nil-safe)
}

// setLane installs (or carries across a hardware replacement) the shard's
// health-state timeline lane.
func (s *Shard) setLane(l *timeline.Lane) { s.lane = l }

// serving reports whether the shard answers reads.
func (s *Shard) serving() bool { return s.state == Healthy || s.state == Suspect }

// writable reports whether the shard accepts writes (Recovering included:
// foreground writes keep the replacement current while rebuild fills in
// history).
func (s *Shard) writable() bool { return s.state != Dead }

// setState transitions the shard and charges the timeline lane.
func (c *Cluster) setState(sh *Shard, st State, at sim.Time) {
	if sh.state == st {
		return
	}
	sh.state = st
	sh.lane.Enter(int(st), int64(at))
}

// startHeartbeats spawns one probe daemon per shard. Daemons do not keep
// the simulation alive: health monitoring exists only while real work does.
// A daemon's probes all land in one sector buffer, whose bytes nothing reads.
func (c *Cluster) startHeartbeats() {
	for i := range c.shards {
		i := i
		c.env.GoDaemon(fmt.Sprintf("cluster/hb%d", i), func(p *sim.Proc) {
			probe := make([]byte, geom.SectorSize)
			for {
				p.Sleep(heartbeatInterval)
				sh := c.shards[i]
				if sh.state == Dead || sh.state == Recovering {
					// The replacement path owns these states.
					continue
				}
				_, err := sh.dev.ReadOpts(p, 0, 1, blockdev.Options{
					Deadline: p.Now().Add(probeTimeout),
					Class:    blockdev.ClassInteractive,
					Into:     probe,
				})
				c.observeProbe(sh, err, p.Now())
			}
		})
	}
}

// observeProbe folds one probe result into the state machine.
func (c *Cluster) observeProbe(sh *Shard, err error, at sim.Time) {
	if err == nil {
		sh.probeFails = 0
		if sh.state == Suspect {
			c.setState(sh, Healthy, at)
		}
		return
	}
	if errors.Is(err, blockdev.ErrDeviceFailed) {
		c.markDead(sh, at)
		return
	}
	sh.probeFails++
	if sh.probeFails >= deadAfter {
		c.markDead(sh, at)
	} else if sh.probeFails >= suspectAfter && sh.state == Healthy {
		c.setState(sh, Suspect, at)
	}
}

// observeRequestError feeds request-path errors into failure detection:
// hard device failures kill the shard immediately, missed deadlines count
// like missed probes. Shed requests say nothing about health.
func (c *Cluster) observeRequestError(sh *Shard, err error, at sim.Time) {
	switch {
	case errors.Is(err, blockdev.ErrDeviceFailed):
		c.markDead(sh, at)
	case blockdev.IsExpired(err):
		sh.probeFails++
		if sh.probeFails >= suspectAfter && sh.state == Healthy {
			c.setState(sh, Suspect, at)
		}
	}
}

// markDead declares the shard dead and schedules its replacement. The
// replacement runs in a live process: a cluster with a rebuild pending has
// real work left, and the simulation must not end under it.
func (c *Cluster) markDead(sh *Shard, at sim.Time) {
	if sh.state == Dead || sh.state == Recovering {
		return
	}
	c.setState(sh, Dead, at)
	c.stats.ShardDeaths++
	idx := sh.idx
	c.env.Go(fmt.Sprintf("cluster/replace%d", idx), func(p *sim.Proc) {
		p.Sleep(replaceAfter)
		old := c.shards[idx]
		fresh, err := c.provision(idx, old.gen+1)
		if err != nil {
			// Fresh hardware cannot fail to format in this simulation;
			// leave the shard dead if it somehow does.
			return
		}
		fresh.state = Dead
		fresh.setLane(old.lane)
		c.shards[idx] = fresh
		c.setState(fresh, Recovering, p.Now())
		c.rebuild(p, fresh)
		c.setState(fresh, Healthy, p.Now())
		c.stats.Recoveries++
	})
}

// retryBackoff is the pause between refused rebuild copy attempts.
const retryBackoff = 5 * time.Millisecond
