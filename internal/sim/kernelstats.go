package sim

import "tracklog/internal/telemetry"

// Kernel self-observability.
//
// Every experiment in the repository runs on this kernel, so simulator
// throughput is itself a performance surface (see ROADMAP "raw simulator
// speed"). KernelStats counts the kernel's own work — events dispatched,
// heap operations, wakeups, process churn — in plain always-on int64
// fields: the counters are pure functions of the deterministic event
// schedule, so two same-seed runs produce identical KernelStats and the
// values are safe to include in byte-compared artifacts.
//
// The counters are observer state, not simulated state: reading them never
// changes the schedule, so a run with an observer attached pops the same
// events as one without.
//
// Wall-clock cost (events/sec, ns/event, allocs/event) is measured from
// outside the module by bench/ and never appears here.

// KernelStats is a snapshot of the kernel's own work counters.
type KernelStats struct {
	// EventsDispatched counts queue pops that transferred control to a
	// process (stale entries for finished processes are excluded).
	EventsDispatched int64
	// HeapPushes / HeapPops count raw event-queue heap operations.
	HeapPushes int64
	HeapPops   int64
	// Wakeups counts ready() calls: parked processes resumed by a
	// primitive (event trigger, cond broadcast, resource grant).
	Wakeups int64
	// ProcsSpawned / ProcsFinished count process lifecycle edges;
	// processes unwound by Close are spawned but never finished.
	ProcsSpawned  int64
	ProcsFinished int64
	// ProbeEvents mirrors Env.ProbeCount: durability-edge probes numbered
	// whether or not a hook is attached.
	ProbeEvents int64
	// QueuePeak / ProcsPeak are high-water marks of the event queue and
	// the live process table.
	QueuePeak int
	ProcsPeak int
}

// Delta returns s minus an earlier baseline, for measuring one phase of a
// run (e.g. the simbench gate section subtracting world-construction cost).
// Peaks are carried over unchanged: they are whole-run high-water marks.
func (s KernelStats) Delta(base KernelStats) KernelStats {
	return KernelStats{
		EventsDispatched: s.EventsDispatched - base.EventsDispatched,
		HeapPushes:       s.HeapPushes - base.HeapPushes,
		HeapPops:         s.HeapPops - base.HeapPops,
		Wakeups:          s.Wakeups - base.Wakeups,
		ProcsSpawned:     s.ProcsSpawned - base.ProcsSpawned,
		ProcsFinished:    s.ProcsFinished - base.ProcsFinished,
		ProbeEvents:      s.ProbeEvents - base.ProbeEvents,
		QueuePeak:        s.QueuePeak,
		ProcsPeak:        s.ProcsPeak,
	}
}

// Counters names every KernelStats field as a "sim.*" counter.
func (s KernelStats) Counters() telemetry.Counts {
	return telemetry.Counts{
		"sim.events_dispatched": s.EventsDispatched,
		"sim.heap_pushes":       s.HeapPushes,
		"sim.heap_pops":         s.HeapPops,
		"sim.proc_wakeups":      s.Wakeups,
		"sim.procs_spawned":     s.ProcsSpawned,
		"sim.procs_finished":    s.ProcsFinished,
		"sim.probe_events":      s.ProbeEvents,
		"sim.event_queue_peak":  int64(s.QueuePeak),
		"sim.procs_peak":        int64(s.ProcsPeak),
	}
}

// KernelStats returns the kernel's work counters so far.
func (e *Env) KernelStats() KernelStats {
	s := e.kstats
	s.ProbeEvents = e.probeSeq
	return s
}

// SetMetrics registers the kernel's self-observability series on reg and
// attaches the dispatch-depth histogram handle. All series read
// deterministic virtual-time state, so any export of reg is safe for
// two-run byte compares. A nil registry detaches the histogram and
// registers nothing — the instrumented hot path costs one nil check.
//
// reg becomes the registry Close releases (telemetry.Registry.Release), so
// every func-backed series on it — the kernel's and every layer's — stops
// referencing its component when this environment closes. A nil registry
// unbinds it.
func (e *Env) SetMetrics(reg *telemetry.Registry) {
	e.reg = reg
	e.mDispatchDepth = reg.Histogram(
		telemetry.Prefix+"sim_dispatch_queue_depth",
		"Event-queue depth observed at each dispatch.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	reg.CounterFuncs(func() telemetry.Counts { return e.KernelStats().Counters() })
	reg.GaugeFuncs(e.Levels)
}

// Levels snapshots the kernel's live values: the virtual time in
// milliseconds, the event-queue depth, and processes spawned and not
// finished.
func (e *Env) Levels() telemetry.Levels {
	return telemetry.Levels{
		"sim.virtual_time_ms":   float64(e.now) / 1e6,
		"sim.event_queue_depth": float64(len(e.queue)),
		"sim.procs_live":        float64(len(e.live)),
	}
}
