package crashexplore

import (
	"fmt"
	"sort"

	"tracklog/internal/sim"
	"tracklog/internal/snapshot"
)

// World is a checkpointable simulation rig: the kernel plus every registered
// component, snapshotted together as one byte-deterministic blob. Snapshot
// captures a quiescent instant (no component mid-operation); Restore puts
// every component back and verifies, by byte comparison, that the kernel's
// replayed state matches the checkpoint — the guarantee behind "a restored
// world is byte-identical to one that was never snapshotted".
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

// Env returns the world's kernel.
func (w *World) Env() *sim.Env { return w.env }

// section is one component's part of a world checkpoint.
type section struct {
	name  string
	state []byte
}

// walkWorld is the world checkpoint format: the kernel's snapshot, then each
// component's under its name, in sorted name order.
func walkWorld(c *snapshot.Codec, env *[]byte, comps *[]section) {
	c.View(env)
	snapshot.Slice(c, comps, func(c *snapshot.Codec, s *section) {
		c.String(&s.name)
		c.View(&s.state)
	})
}

// Snapshot encodes the kernel and every component (see walkWorld).
// Components must be quiescent (each component's Snapshot enforces its own
// policy, by panic or via its Quiescent accessor).
func (w *World) Snapshot() []byte {
	env := w.env.Snapshot()
	names := append([]string(nil), w.names...)
	sort.Strings(names)
	comps := make([]section, len(names))
	for i, name := range names {
		comps[i] = section{name, w.comps[name].Snapshot()}
	}
	return snapshot.Encode(worldSnapKind, 1, func(c *snapshot.Codec) { walkWorld(c, &env, &comps) })
}

// Digest returns a compact fingerprint of the world's current snapshot.
func (w *World) Digest() uint64 { return snapshot.Digest(w.Snapshot()) }

// Restore puts every registered component back to the checkpoint's state and
// verifies the kernel against it. The component sets must match by name; the
// kernel section must byte-match the current kernel (worlds restore onto a
// rig replayed to the same instant — goroutine stacks cannot be
// deserialized, so the kernel is reproduced by replay and checked here).
func (w *World) Restore(data []byte) error {
	var env []byte
	var comps []section
	if err := snapshot.Decode(data, worldSnapKind, 1, func(c *snapshot.Codec) { walkWorld(c, &env, &comps) }); err != nil {
		return err
	}
	if len(comps) != len(w.comps) {
		return fmt.Errorf("%w: snapshot has %d components, world has %d",
			snapshot.ErrMismatch, len(comps), len(w.comps))
	}
	for i, s := range comps {
		if i > 0 && s.name <= comps[i-1].name {
			return fmt.Errorf("%w: component %q after %q", snapshot.ErrCorrupt, s.name, comps[i-1].name)
		}
		if _, ok := w.comps[s.name]; !ok {
			return fmt.Errorf("%w: snapshot component %q not registered", snapshot.ErrMismatch, s.name)
		}
	}
	// Components first (they adopt state), kernel last (it verifies): a
	// component failure leaves the kernel untouched either way.
	for _, s := range comps {
		if err := w.comps[s.name].Restore(s.state); err != nil {
			return fmt.Errorf("component %q: %w", s.name, err)
		}
	}
	if err := w.env.Restore(env); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	return nil
}
