package rig

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tracklog/internal/benchfmt"
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

// NewInstruments returns a bundle holding all four instruments: a tracer and
// a span recorder at their default capacities, a timeline of bucket width
// bucket and a registry.
func NewInstruments(bucket time.Duration) Instruments {
	return Instruments{
		Tracer:   trace.New(trace.DefaultCapacity),
		Recorder: span.NewRecorder(span.DefaultCapacity),
		Timeline: timeline.New(bucket),
		Registry: telemetry.NewRegistry(),
	}
}

// WriteDir writes the artefact set of a bundle from NewInstruments into dir,
// creating it, under the names cmd/rundiff reads, and prints a line per file
// (and the tracer's prediction audit) to w:
//
//	trace.json    Chrome trace: kernel events, requests as async spans
//	metrics.prom  the registry (Prometheus text)
//	timeline.csv  the timeline, its open intervals closed at end
//	bench.json    entries as a benchfmt file (only when there are entries)
//	spans.json    every retained request's span tree
func (in Instruments) WriteDir(dir string, end sim.Time, entries []benchfmt.Entry, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	err := writeFile(path("trace.json"), func(w io.Writer) error {
		cw := trace.NewChromeWriter(w)
		in.Tracer.EmitChrome(cw)
		in.Recorder.EmitChrome(cw)
		return cw.Close()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d events -> %s (%d dropped)\n", in.Tracer.Len(), path("trace.json"), in.Tracer.Dropped())
	if rep := in.Tracer.Audit(); rep.Predictions > 0 || rep.Unaudited > 0 {
		fmt.Fprint(w, rep)
	}
	if err := in.Registry.WriteFile(path("metrics.prom")); err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics: %d series -> %s\n", in.Registry.Len(), path("metrics.prom"))
	in.Timeline.Finish(int64(end))
	if err := in.Timeline.WriteFile(path("timeline.csv")); err != nil {
		return err
	}
	fmt.Fprintf(w, "timeline: bucket %v -> %s\n", time.Duration(in.Timeline.BucketNS()), path("timeline.csv"))
	if len(entries) > 0 {
		if err := (&benchfmt.File{Experiments: entries}).WriteFile(path("bench.json")); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench summary -> %s\n", path("bench.json"))
	}
	if err := writeFile(path("spans.json"), in.Recorder.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d requests -> %s (%d dropped)\n", in.Recorder.Len(), path("spans.json"), in.Recorder.Dropped())
	return nil
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
