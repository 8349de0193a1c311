// Package qos is the overload policy the storage stack reads: bounded
// admission with explicit shedding, per-request virtual-time deadlines, and
// per-class retry budgets. The Trail driver (alone or as a cluster shard)
// and stddisk (and through it each sched.Queue's depth bound) enforce it;
// this package holds only the knobs and the rules that resolve them.
//
// The stack without QoS is an open funnel — sched.Queue and the Trail log
// queue grow without bound, so offered load beyond what the disks absorb
// turns into unbounded latency. A qos.Policy closes the funnel: requests
// beyond the admission bound complete immediately with
// blockdev.ErrOverload, requests whose deadline passes complete with
// blockdev.ErrDeadlineExceeded instead of occupying the disk, and retries
// are charged against a per-class budget so a sick device cannot pin a
// worker forever.
//
// Everything here runs on the simulator's virtual clock. Deadline checks
// are lazy — evaluated at admission, at wakeup, and before each retry —
// never on wall-clock timers, so same-seed runs stay byte-identical.
//
// A nil *Policy disables QoS entirely: every accessor is nil-safe and
// returns the permissive default, so drivers hold a *Policy and never
// branch on nil themselves.
package qos

import (
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// Policy is the knob set for one driver stack. The zero value of every
// field means "no limit"; a nil *Policy means QoS is off.
type Policy struct {
	// MaxQueue bounds the driver's admission queue (Trail's log queue).
	// Arrivals beyond the bound are shed with blockdev.ErrOverload.
	// 0 = unbounded.
	MaxQueue int

	// MaxDepth bounds each sched.Queue's pending-request depth. When full,
	// the lowest-class queued request is shed to admit a higher-class
	// newcomer; otherwise the newcomer is shed. 0 = unbounded.
	MaxDepth int

	// DefaultDeadline, when nonzero, is applied at client submit to
	// requests that carry no explicit deadline: the absolute deadline is
	// submit time + DefaultDeadline on the virtual clock.
	DefaultDeadline time.Duration

	// Retry budgets per class: the number of attempts (initial + retries)
	// a transient fault may consume before the request fails. 0 selects
	// the driver's historical constant for that path, so enabling QoS
	// without setting budgets changes nothing about retry behaviour.
	BackgroundRetries  int
	NormalRetries      int
	InteractiveRetries int

	// HighWater/LowWater throttle Trail foreground writes against
	// write-back progress: when staged-but-unwritten bytes reach
	// HighWater, new foreground writes stall until write-back drains
	// staging below LowWater. 0 = no throttle.
	HighWater int
	LowWater  int
}

// Default returns a policy with bounds sized for the simulated drives:
// admission queue and sched depth bounded, a generous default deadline,
// modest per-class retry budgets, and the staging throttle engaged at one
// megabyte.
func Default() *Policy {
	return &Policy{
		MaxQueue:           64,
		MaxDepth:           32,
		DefaultDeadline:    2 * time.Second,
		BackgroundRetries:  2,
		NormalRetries:      3,
		InteractiveRetries: 5,
		HighWater:          1 << 20,
		LowWater:           1 << 19,
	}
}

// QueueBound returns the admission-queue bound, 0 if unbounded.
func (p *Policy) QueueBound() int {
	if p == nil {
		return 0
	}
	return p.MaxQueue
}

// DepthBound returns the sched depth bound, 0 if unbounded.
func (p *Policy) DepthBound() int {
	if p == nil {
		return 0
	}
	return p.MaxDepth
}

// RetryBudget returns the attempt budget for class c, or fallback (the
// driver's historical constant) when unset or QoS is off.
func (p *Policy) RetryBudget(c blockdev.Class, fallback int) int {
	if p == nil {
		return fallback
	}
	var b int
	switch c {
	case blockdev.ClassBackground:
		b = p.BackgroundRetries
	case blockdev.ClassInteractive:
		b = p.InteractiveRetries
	default:
		b = p.NormalRetries
	}
	if b <= 0 {
		return fallback
	}
	return b
}

// Deadline resolves a request's absolute deadline at submit time now:
// an explicit deadline wins; otherwise DefaultDeadline applies; zero
// means none.
func (p *Policy) Deadline(now sim.Time, explicit sim.Time) sim.Time {
	if explicit != 0 {
		return explicit
	}
	if p == nil || p.DefaultDeadline <= 0 {
		return 0
	}
	return now.Add(p.DefaultDeadline)
}

// ClassBound returns the admission-queue occupancy at which class c is
// shed, implementing "lowest priority first": Background is refused once
// the queue is a quarter full, Normal at three quarters, Interactive only
// when completely full. Returns 0 (no bound) when QoS is off or MaxQueue
// is unbounded.
func (p *Policy) ClassBound(c blockdev.Class) int {
	max := p.QueueBound()
	if max == 0 {
		return 0
	}
	switch c {
	case blockdev.ClassBackground:
		b := max / 4
		if b < 1 {
			b = 1
		}
		return b
	case blockdev.ClassInteractive:
		return max
	default:
		b := max * 3 / 4
		if b < 1 {
			b = 1
		}
		return b
	}
}
