package crashexplore

import (
	"fmt"

	"tracklog/internal/disk"
	"tracklog/internal/sim"
)

// pauseAt builds the stack and runs the seeded census until probe index i,
// where it stays paused.
func (x *Explorer) pauseAt(i int64) (env *sim.Env, ev EventInfo, drives []*disk.Disk, acked []int, err error) {
	env = sim.NewEnv()
	write, drives, err := x.stack.Build(env)
	if err != nil {
		env.Close()
		return nil, ev, nil, nil, err
	}
	env.SetProbeHook(func(pe sim.ProbeEvent) bool {
		if pe.Index != i {
			return false
		}
		ev = eventInfo(pe)
		return true
	})
	acked = launchWorkload(env, x.opts.Seed, write)
	if env.RunUntil(x.opts.horizon()); !env.Paused() {
		env.Close()
		return nil, ev, nil, nil, fmt.Errorf("probe %d not reached within the horizon", i)
	}
	return env, ev, drives, acked, nil
}

// ForkAt pauses the census at probe index i and returns a function that forks
// the branch there (clone, recover, audit) each time it is called, and the
// function that ends the census.
func (x *Explorer) ForkAt(i int64) (fork func() Branch, stop func(), err error) {
	env, ev, drives, acked, err := x.pauseAt(i)
	if err != nil {
		return nil, nil, err
	}
	return func() Branch { return x.fork(ev, drives, acked) }, env.Close, nil
}

// Replay runs the branch at probe index i the way the explorer ran every
// branch before branches forked from the census: build a fresh stack, replay
// the seeded workload from time zero to the event, cut power there, and
// recover and audit the stack's own drives. It is the reference the fork is
// held to.
func (x *Explorer) Replay(i int64) (Branch, error) {
	env, ev, drives, acked, err := x.pauseAt(i)
	if err != nil {
		return Branch{}, err
	}
	env.Close() // the power cut: every in-flight process dies here
	return x.branch(ev, drives, acked), nil
}
