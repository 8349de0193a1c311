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

// The artefact set of a run directory: WriteDir writes it, ReadDir reads it.
const (
	traceFile    = "trace.json"   // Chrome trace: kernel events, requests as async spans
	metricsFile  = "metrics.prom" // the registry (Prometheus text)
	timelineFile = "timeline.csv" // the timeline, its open intervals closed at end
	benchFile    = "bench.json"   // entries as a benchfmt file (only when there are entries)
	spansFile    = "spans.json"   // every retained request's span tree
)

// WriteDir writes the artefact set of a bundle from NewInstruments into dir,
// creating it, and prints a line per file to w. What a run directory holds
// is analysed by cmd/rundiff.
func (in Instruments) WriteDir(dir string, end sim.Time, entries []benchfmt.Entry, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := func(name string) string { return filepath.Join(dir, name) }
	err := writeFile(path(traceFile), func(w io.Writer) error {
		cw := trace.NewChromeWriter(w)
		in.Tracer.EmitChrome(cw)
		in.Recorder.EmitChrome(cw)
		return cw.Close()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d events -> %s (%d dropped)\n", in.Tracer.Len(), path(traceFile), in.Tracer.Dropped())
	if err := in.Registry.WriteFile(path(metricsFile)); err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics: %d series -> %s\n", in.Registry.Len(), path(metricsFile))
	in.Timeline.Finish(int64(end))
	if err := in.Timeline.WriteFile(path(timelineFile)); err != nil {
		return err
	}
	fmt.Fprintf(w, "timeline: bucket %v -> %s\n", time.Duration(in.Timeline.BucketNS()), path(timelineFile))
	if len(entries) > 0 {
		if err := (&benchfmt.File{Experiments: entries}).WriteFile(path(benchFile)); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench summary -> %s\n", path(benchFile))
	}
	if err := writeFile(path(spansFile), in.Recorder.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: %d requests -> %s (%d dropped)\n", in.Recorder.Len(), path(spansFile), in.Recorder.Dropped())
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

// Run is a run directory read back: each artefact WriteDir writes, parsed and
// checked by its own package's reader, nil when its file is absent.
type Run struct {
	Trace    []trace.ChromeEvent
	Metrics  map[string]float64
	Timeline *timeline.Timeline
	Bench    *benchfmt.File
	Spans    []*span.Request
}

// ReadDir reads the artefacts WriteDir writes from dir. A directory holding
// none of them is an error, and so is any artefact its reader rejects; the
// error names the file.
func ReadDir(dir string) (*Run, error) {
	var run Run
	found := 0
	for _, a := range []struct {
		name string
		read func(r io.Reader) error
	}{
		{traceFile, func(r io.Reader) (err error) { run.Trace, err = trace.ReadChrome(r); return err }},
		{metricsFile, func(r io.Reader) (err error) { run.Metrics, err = telemetry.ParseProm(r); return err }},
		{timelineFile, func(r io.Reader) (err error) { run.Timeline, err = timeline.Parse(r); return err }},
		{benchFile, func(r io.Reader) (err error) { run.Bench, err = benchfmt.Read(r); return err }},
		{spansFile, func(r io.Reader) (err error) { run.Spans, _, err = span.ReadJSON(r); return err }},
	} {
		path := filepath.Join(dir, a.name)
		if st, err := os.Stat(path); err != nil || st.IsDir() {
			continue
		}
		f, err := os.Open(path)
		if err == nil {
			err = a.read(f)
			f.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		found++
	}
	if found == 0 {
		return nil, fmt.Errorf("%s: no run artifacts (%s, %s, %s, %s, %s)", dir, traceFile, metricsFile, timelineFile, benchFile, spansFile)
	}
	return &run, nil
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
