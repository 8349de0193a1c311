package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// A scenario is one benchmark workload: it builds one simulated world, drives
// a fixed number of client operations through it, and checks the outputs. Its
// run function is called once per rep with a fresh rep value and must not
// keep state between calls.
type scenario struct {
	name string
	// observed workloads attach the product's registry, timeline and span
	// recorder in every rep, not only the traced one.
	observed bool
	// note is printed above the workload's numbers.
	note string
	run  func(r *rep) error
}

// instruments is the product's observability stack as one bundle. The zero
// bundle hands every layer nil instruments, which is their disabled state.
type instruments struct {
	tr  *trace.Tracer
	rec *span.Recorder
	tl  *timeline.Aggregator
	reg *telemetry.Registry
}

func newInstruments(tracer bool) instruments {
	o := instruments{
		rec: span.NewRecorder(1 << 16),
		tl:  timeline.New(10 * time.Millisecond),
		reg: telemetry.NewRegistry(),
	}
	if tracer {
		o.tr = trace.New(1 << 16)
	}
	return o
}

// hostCost is what one phase cost this process: the host clock.
type hostCost struct {
	wallS, cpuS    float64
	mallocs, bytes uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rep is one repetition of a workload: the inputs the harness hands the
// workload and the numbers the workload hands back.
type rep struct {
	workload string
	index    int
	seed     uint64
	// div divides every op count (1 for the benchmark, 50 for the smoke
	// test).
	div int
	obs instruments
	// profile, when set, receives a CPU profile of the measured phase.
	profile *os.File
	spans   *spanLog
	// root is the span of the whole rep; parent is the span new child
	// spans hang under: set-up until setupDone, then root.
	root, parent int

	start  time.Time
	setupS float64
	cost   hostCost
	// speed is the machine's speed around this rep (see machineSpeed);
	// the harness scales the rep's host times by it when it aggregates.
	speed   float64
	ops     int64 // client ops acked in the measured phase
	failed  int64 // failed + shed + expired + aborted + lost on verify
	samples int   // latency samples behind virt_op_p50_us / p99
	// virt holds numbers on the virtual clock and exact counts: the same
	// seed must reproduce every one of them bit for bit. host holds
	// workload-specific wall-clock numbers.
	virt, host map[string]float64
	digest     []string
}

func (r *rep) scaled(n int) int {
	if n /= r.div; n < 1 {
		return 1
	}
	return n
}

// span times fn on the host clock as one call into a layer.
func (r *rep) span(name string, fn func()) {
	id := r.spans.begin(r.parent, r.workload, r.index, name)
	fn()
	r.spans.end(id)
}

// setupDone marks the end of world construction; everything from the start
// of the rep to here is setup_s.
func (r *rep) setupDone() {
	r.setupS = time.Since(r.start).Seconds()
	r.spans.end(r.parent)
	r.parent = r.root
}

// measure runs the measured phase and records its host cost.
func (r *rep) measure(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if r.profile != nil {
		if err := pprof.StartCPUProfile(r.profile); err != nil {
			fmt.Fprintln(os.Stderr, "bench: cpu profile:", err)
			r.profile = nil
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	r.span("run", fn)
	r.cost.wallS, r.cost.cpuS = time.Since(t0).Seconds(), cpuSeconds()-c0
	if r.profile != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	r.cost.mallocs, r.cost.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
}

// fingerprint adds layer state to the rep's determinism digest.
func (r *rep) fingerprint(label string, v any) {
	r.digest = append(r.digest, fmt.Sprintf("%s=%+v", label, v))
}

// sum returns the FNV digest of every virtual number and fingerprint.
func (r *rep) sum() uint64 {
	h := fnv.New64a()
	for _, k := range sortedKeys(r.virt) {
		fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(r.virt[k]))
	}
	for _, s := range r.digest {
		fmt.Fprintln(h, s)
	}
	return h.Sum64()
}

// latencies summarises one latency sample set in virtual microseconds.
func (r *rep) latencies(p50, p99 string, ns []int64) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	if p50 != "" {
		r.virt[p50] = float64(quantile(ns, 0.50)) / 1e3
	}
	r.virt[p99] = float64(quantile(ns, 0.99)) / 1e3
}

// quantile is the nearest-rank order statistic of a sorted sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta subtracts two snapshots of one layer's Stats struct field by field,
// so a workload reports its measured phase and not the set-up before it.
// High-water marks (Max*, *Peak) keep the later value.
func delta[T any](after, before T) T {
	var out T
	a, b, o := reflect.ValueOf(after), reflect.ValueOf(before), reflect.ValueOf(&out).Elem()
	for i := 0; i < a.NumField(); i++ {
		name := a.Type().Field(i).Name
		peak := strings.HasPrefix(name, "Max") || strings.HasSuffix(name, "Peak")
		switch f := a.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			if peak {
				o.Field(i).SetInt(f.Int())
			} else {
				o.Field(i).SetInt(f.Int() - b.Field(i).Int())
			}
		case reflect.Float64:
			o.Field(i).SetFloat(f.Float() - b.Field(i).Float())
		default:
			panic("bench: delta: unsupported field " + name)
		}
	}
	return out
}

// spanLog keeps the harness's own wall-clock spans in memory: one span per
// call into a layer, all spans of a rep under one root.
type spanLog struct {
	t0    time.Time
	Spans []hostSpan
}

type hostSpan struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1; parent 0 is none).
func (l *spanLog) begin(parent int, workload string, rep int, name string) int {
	l.Spans = append(l.Spans, hostSpan{
		ID: len(l.Spans) + 1, Parent: parent, Workload: workload, Rep: rep, Name: name,
		StartNS: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.Spans)
}

func (l *spanLog) end(id int) { l.Spans[id-1].EndNS = time.Since(l.t0).Nanoseconds() }

// Machine speed. Identical work on the shared VMs this benchmark runs on
// takes up to 1.5 times longer in some minutes than in others, and the
// pipeline holds setup_s of one set of runs to that of another set taken
// minutes later. So every host time of a rep is scaled by how fast the
// machine ran two kernels just before and after that rep, relative to the
// reference laps below. The kernels use the Go runtime and nothing of this
// repository, the same two things the simulator's host time is mostly made
// of: allocation with garbage collection, and goroutine hand-off over
// unbuffered channels (the kernel's own handshake). A change to the
// repository cannot move them.

// Reference laps: the machine the benchmark was written on, in its faster
// minutes. They only fix the unit, "seconds on the reference machine".
const (
	refAllocLap   = 0.016
	refHandoffLap = 0.014
)

// lap is one timing of each kernel, in seconds.
type lap struct{ alloc, handoff float64 }

type lapNode struct {
	next *lapNode
	pad  [6]uint64
}

var lapSink *lapNode

func allocLap() float64 {
	t0 := time.Now()
	var head *lapNode
	for i := 0; i < 300000; i++ {
		head = &lapNode{next: head}
		if i%1000 == 999 {
			head = nil
		}
	}
	lapSink = head
	return time.Since(t0).Seconds()
}

func handoffLap() float64 {
	t0 := time.Now()
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	for i := 0; i < 30000; i++ {
		ping <- struct{}{}
		<-pong
	}
	close(ping)
	<-pong
	return time.Since(t0).Seconds()
}

// calibrate runs the two kernels in turn for about d.
func calibrate(d time.Duration) []lap {
	var laps []lap
	for t0 := time.Now(); time.Since(t0) < d; {
		laps = append(laps, lap{alloc: allocLap(), handoff: handoffLap()})
	}
	return laps
}

// machineSpeed is the reference machine's lap time over this machine's, the
// geometric mean over the two kernels of the median lap: below 1 on a slower
// machine or in a slower minute. A host time multiplied by it is that time
// on the reference machine.
func machineSpeed(laps []lap) float64 {
	a, h := make([]float64, len(laps)), make([]float64, len(laps))
	for i, l := range laps {
		a[i], h[i] = l.alloc, l.handoff
	}
	return math.Sqrt(refAllocLap / median(a) * refHandoffLap / median(h))
}
