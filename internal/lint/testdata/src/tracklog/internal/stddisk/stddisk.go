// Package stddisk is the nilguard fixture: it imports the real
// observability packages and exercises the install-through-accessors rule.
package stddisk

import (
	"tracklog/internal/span"
	"tracklog/internal/trace"
)

// Device mimics an instrumented layer.
type Device struct {
	tr  *trace.Tracer
	rec *span.Recorder
}

// NewDevice may seed handles: constructors are accessors.
func NewDevice(tr *trace.Tracer) *Device { return &Device{tr: tr} }

// SetTracer is the blessed install path.
func (d *Device) SetTracer(tr *trace.Tracer) { d.tr = tr }

// SetRecorder likewise.
func (d *Device) SetRecorder(rec *span.Recorder) { d.rec = rec }

// serve calls nil-safe methods unguarded — exactly what the contract is
// for; no guard required.
func (d *Device) serve() {
	d.tr.Emit(trace.Event{At: 1, Kind: trace.KSeek})
	rq := d.rec.Start(span.KWrite, "std", "dev", 0, 1, 0)
	rq.Finish(10, false)
}

// disableTracing swaps instrumentation outside an accessor: flagged.
func (d *Device) disableTracing() {
	d.tr = nil // want `handle field tr \(trace\.Tracer\) is assigned outside a Set\*/New\* accessor`
}

// swapRecorder likewise.
func (d *Device) swapRecorder(rec *span.Recorder) {
	d.rec = rec // want `handle field rec \(span\.Recorder\) is assigned outside a Set\*/New\* accessor`
}
