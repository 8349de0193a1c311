package crashexplore

import (
	"fmt"
	"sort"

	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// World is a checkpointable simulation rig: the kernel plus every registered
// component, snapshotted together as one byte-deterministic blob. Nothing
// restores a world — goroutine stacks cannot be deserialized, and recovery
// starts from the media alone — so the checkpoint is a fingerprint: two
// worlds at the same instant of the same run encode byte-identically.
type World struct {
	env   *sim.Env
	names []string // registration order; snapshots encode sorted
	comps map[string]snapshot.Snapshotter
}

// worldSnapKind versions the world container format.
const worldSnapKind = "crashexplore.World"

// NewWorld returns an empty world over env.
func NewWorld(env *sim.Env) *World {
	return &World{env: env, comps: make(map[string]snapshot.Snapshotter)}
}

// Register adds a named component. Names must be unique; they key the
// component's section in the world snapshot.
func (w *World) Register(name string, s snapshot.Snapshotter) {
	if _, dup := w.comps[name]; dup {
		panic(fmt.Sprintf("crashexplore: component %q registered twice", name))
	}
	w.names = append(w.names, name)
	w.comps[name] = s
}

// Snapshot encodes the world checkpoint: the kernel's snapshot, then each
// component's under its name, in sorted name order. Components must be
// quiescent (each component's Snapshot enforces its own policy).
func (w *World) Snapshot() []byte {
	env := w.env.Snapshot()
	names := append([]string(nil), w.names...)
	sort.Strings(names)
	return snapshot.Encode(worldSnapKind, 1, func(c *snapshot.Codec) {
		c.View(&env)
		snapshot.Slice(c, &names, func(c *snapshot.Codec, name *string) {
			state := w.comps[*name].Snapshot()
			c.String(name)
			c.View(&state)
		})
	})
}
