package rig

import (
	"strconv"

	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// Instruments is the one bundle of observability handles a run can carry.
// Every field is nil-is-disabled: a nil handle is never handed to a layer,
// so the zero bundle attaches nothing and allocates nothing.
type Instruments struct {
	Tracer   *trace.Tracer
	Recorder *span.Recorder
	Timeline *timeline.Aggregator
	Registry *telemetry.Registry
}

// AttachKernel hands env the bundle's tracer, timeline and registry. Rig.Start
// does this for Config.Instruments; a caller observing an Env the rig did not
// start (a recovered rig's, a cluster's) calls it on that Env.
func (in Instruments) AttachKernel(env *sim.Env) {
	if in.Tracer != nil {
		env.SetTracer(in.Tracer)
	}
	if in.Timeline != nil {
		env.SetTimeline(in.Timeline)
	}
	if in.Registry != nil {
		env.SetMetrics(in.Registry)
	}
}

// Attach hands the bundle to every layer of a started rig: the Trail driver
// (which fans out to its log disks as logN and its data disks and queues as
// dataN), or each baseline device with its queue and drive under Config.Name.
// Call it at most once per handle, before the clock moves.
func (r *Rig) Attach(in Instruments) {
	if drv := r.Trail; drv != nil {
		if in.Tracer != nil {
			drv.SetTracer(in.Tracer)
		}
		if in.Recorder != nil {
			drv.SetRecorder(in.Recorder)
		}
		if in.Timeline != nil {
			drv.SetTimeline(in.Timeline)
		}
		if in.Registry != nil {
			drv.RegisterMetrics(in.Registry)
		}
		return
	}
	if in == (Instruments{}) {
		return
	}
	for i, sd := range r.Std {
		name := r.cfg.Name + strconv.Itoa(i)
		if in.Tracer != nil {
			sd.SetTracer(in.Tracer, name)
		}
		if in.Recorder != nil {
			sd.SetRecorder(in.Recorder, name)
		}
		if in.Timeline != nil {
			sd.SetTimeline(in.Timeline, name)
		}
		if in.Registry != nil {
			sd.RegisterMetrics(in.Registry, name)
		}
	}
}
