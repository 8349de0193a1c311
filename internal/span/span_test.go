package span

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tracklog/internal/disk"
	"tracklog/internal/sim"
	"tracklog/internal/trace"
)

// phases is a disk command's per-phase time, keyed by disk.Phase.
type phases = [disk.NumPhases]time.Duration

// cmd is a successful disk command that started at start and spent ph.
func cmd(start int64, ph phases) *disk.Result {
	return &disk.Result{Start: sim.Time(start), Phases: ph}
}

// A disabled recorder is a nil pointer; every call must be a no-op.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	q := r.Start(KWrite, "trail", "data0", 0, 2, 0)
	if q != nil {
		t.Fatal("nil recorder returned a live handle")
	}
	q.Child(PQueue, 0, 10)
	q.ChildAB(PRotWait, 10, 20, 1, 2)
	q.ChildPair(20, 30, 40, 0, 1)
	q.Point(PStaging, 5, 0, 0)
	q.Flow(3)
	q.Command(cmd(0, phases{disk.Transfer: 100}), 0)
	q.Finish(100, false)
	if q.ID() != 0 {
		t.Fatal("nil handle has an id")
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Requests() != nil {
		t.Fatal("nil recorder accumulated state")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"requests":[`) {
		t.Fatalf("nil recorder JSON invalid: %s", buf.String())
	}
	if evs, err := trace.ReadChrome(strings.NewReader(exportChrome(t, r))); err != nil || len(evs) != 0 {
		t.Fatalf("nil recorder export: %d events, %v; want an empty valid trace", len(evs), err)
	}
}

// exportChrome renders r's span trees the way a run's trace.json is written.
func exportChrome(t *testing.T, r *Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	cw := trace.NewChromeWriter(&buf)
	r.EmitChrome(cw)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func record(r *Recorder, id int) {
	q := r.Start(KWrite, "trail", "data0", int64(id)*8, 2, int64(id)*1000)
	q.ChildAB(PQueue, int64(id)*1000, int64(id)*1000+200, 3, 0)
	q.Command(cmd(int64(id)*1000+200, phases{disk.Overhead: 50, disk.RotWait: 100, disk.Transfer: 150}), 11111)
	q.Finish(int64(id)*1000+500, false)
}

func TestRingEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		record(r, i)
	}
	if r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 4/2", r.Len(), r.Dropped())
	}
	reqs := r.Requests()
	if reqs[0].ID != 3 || reqs[3].ID != 6 {
		t.Fatalf("ring order wrong: first=%d last=%d", reqs[0].ID, reqs[3].ID)
	}
}

// The command breakdown must tile exactly: phases contiguous from Start,
// summing to the attributed total.
func TestCommandTiling(t *testing.T) {
	r := NewRecorder(0)
	q := r.Start(KWrite, "trail", "data0", 0, 2, 0)
	q.Child(PQueue, 0, 70)
	q.Command(cmd(70, phases{disk.Turnaround: 10, disk.Overhead: 20, disk.HeadSwitch: 5, disk.RotWait: 40, disk.Transfer: 55}), 0)
	q.Finish(200, false)
	req := r.Requests()[0]
	if got := req.Attributed(); got != 200 {
		t.Fatalf("attributed = %d, want 200", got)
	}
	// Contiguity: each span starts where the previous ended.
	cur := int64(0)
	for i, s := range req.Spans {
		if s.Start != cur {
			t.Fatalf("span %d (%v) starts at %d, want %d", i, s.Phase, s.Start, cur)
		}
		cur = s.End
	}
	if cur != req.End {
		t.Fatalf("spans end at %d, request at %d", cur, req.End)
	}
	// Zero phases (seek, settle) must be absent.
	for _, s := range req.Spans {
		if s.Phase == PSeek || s.Phase == PSettle {
			t.Fatalf("zero-duration phase %v recorded", s.Phase)
		}
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		r := NewRecorder(8)
		for i := 1; i <= 12; i++ { // forces eviction too
			record(r, i)
		}
		wb := r.Start(KWriteback, "trail", "data0", 8, 2, 20000)
		wb.Flow(3)
		wb.Child(PQueue, 20000, 20100)
		wb.Command(cmd(20100, phases{disk.Seek: 300, disk.RotWait: 200, disk.Transfer: 100}), 0)
		wb.Finish(20700, false)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := mk(), mk()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical recordings produced different JSON")
	}
	for _, frag := range []string{
		`"kind":"writeback"`, `"flows":[3]`, `"phase":"rotwait"`, `"dropped":5`,
	} {
		if !strings.Contains(a.String(), frag) {
			t.Errorf("JSON missing %q", frag)
		}
	}
}

func TestAnalyzeBudget(t *testing.T) {
	r := NewRecorder(0)
	for i := 1; i <= 10; i++ {
		record(r, i)
	}
	// One read on another driver to check grouping.
	q := r.Start(KRead, "std", "disk0", 0, 8, 0)
	q.ChildAB(PQueue, 0, 1000, 2, 1)
	q.Command(cmd(1000, phases{disk.Seek: 5000, disk.RotWait: 3000, disk.Transfer: 1000}), 0)
	q.Finish(10000, false)

	b := Analyze(r.Requests())
	if len(b.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(b.Groups))
	}
	// Sorted by key: std/read < trail/write.
	if b.Groups[0].Key != "std/read" || b.Groups[1].Key != "trail/write" {
		t.Fatalf("group order: %s, %s", b.Groups[0].Key, b.Groups[1].Key)
	}
	g := b.Group("trail/write")
	if g.Count != 10 || g.Errors != 0 {
		t.Fatalf("trail/write count=%d errors=%d", g.Count, g.Errors)
	}
	if g.Unattributed != 0 {
		t.Fatalf("unattributed = %v, want 0", g.Unattributed)
	}
	// Phase rows in declaration order; queue must be first.
	if g.Phases[0].Phase != PQueue {
		t.Fatalf("first phase = %v", g.Phases[0].Phase)
	}
	var share float64
	for _, pb := range g.Phases {
		share += g.Share(pb)
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("phase shares sum to %v, want 1", share)
	}
	// Transfer mean: each request has exactly 150ns of transfer.
	for _, pb := range g.Phases {
		if pb.Phase == PTransfer && pb.PerReq.Mean() != 150 {
			t.Fatalf("transfer mean/req = %v, want 150ns", pb.PerReq.Mean())
		}
	}
	if !strings.Contains(b.String(), "span budget: trail/write") {
		t.Fatalf("budget String missing group:\n%s", b.String())
	}
}

func TestExplainTailCauses(t *testing.T) {
	r := NewRecorder(0)
	rot := time.Duration(11_111_111) // ~5400 RPM period
	// 40 fast, well-predicted writes.
	for i := 1; i <= 40; i++ {
		q := r.Start(KWrite, "trail", "data0", int64(i), 2, int64(i)*100000)
		q.Child(PQueue, int64(i)*100000, int64(i)*100000+100)
		q.Command(cmd(int64(i)*100000+100, phases{disk.Overhead: 300, disk.RotWait: 500, disk.Transfer: 400}), rot)
		q.Finish(int64(i)*100000+1300, false)
	}
	// One misprediction: near-full rotation.
	q := r.Start(KWrite, "trail", "data0", 99, 2, 5_000_000)
	q.Child(PQueue, 5_000_000, 5_000_100)
	q.Command(cmd(5_000_100, phases{disk.Overhead: 300, disk.RotWait: rot - 1000, disk.Transfer: 400}), rot)
	q.Finish(5_000_100+300+int64(rot)-1000+400, false)
	// One read stuck behind write-back.
	qr := r.Start(KRead, "trail", "data0", 50, 8, 6_000_000)
	qr.ChildAB(PQueue, 6_000_000, 6_020_000, 5, 4)
	qr.Command(cmd(6_020_000, phases{disk.Seek: 2000, disk.RotWait: 1000, disk.Transfer: 2000}), rot)
	qr.Finish(6_025_000, false)

	rep := ExplainTail(r.Requests())
	if len(rep.Entries) != 2 {
		t.Fatalf("tail entries = %d, want 2", len(rep.Entries))
	}
	// Slowest first: the mispredicted write.
	if rep.Entries[0].Cause != "rotational miss after misprediction" {
		t.Fatalf("entry 0 cause = %q", rep.Entries[0].Cause)
	}
	if rep.Entries[0].Dominant != PRotWait {
		t.Fatalf("entry 0 dominant = %v", rep.Entries[0].Dominant)
	}
	if got := rep.Entries[1].Cause; got != "queued behind write-back burst (4 writes ahead)" {
		t.Fatalf("entry 1 cause = %q", got)
	}
	if rep.Causes["rotational miss after misprediction"] != 1 {
		t.Fatalf("cause histogram: %s", rep.Causes)
	}
	if !strings.Contains(rep.String(), "misprediction") {
		t.Fatalf("report String:\n%s", rep)
	}
}

func TestExplainRetryAndErrorCauses(t *testing.T) {
	r := NewRecorder(0)
	q := r.Start(KWrite, "trail", "data0", 0, 2, 0)
	q.Child(PQueue, 0, 100)
	q.ChildAB(PRetry, 100, 5000, 1, 0)
	q.Child(PQueue, 5000, 5100)
	q.Command(cmd(5100, phases{disk.Overhead: 300, disk.Transfer: 400}), 0)
	q.Finish(5800, false)
	qe := r.Start(KRead, "std", "disk0", 4, 1, 0)
	qe.Child(PQueue, 0, 50)
	qe.ChildAB(PRetry, 50, 900, 1, 0)
	qe.Finish(900, true)

	byID, causes := map[int64]TailEntry{}, map[string]int{}
	for _, q := range r.Requests() {
		byID[q.ID] = explain(q)
		causes[byID[q.ID].Cause]++
	}
	if got := byID[1].Cause; got != "faulted: 1 command attempt(s) retried" {
		t.Fatalf("retry cause = %q", got)
	}
	if got := byID[2].Cause; got != "failed: gave up after retries" {
		t.Fatalf("error cause = %q", got)
	}
}

// The QoS overload outcomes outrank every phase-based story: a shed or
// deadline-expired request is explained by the overload even when some
// mechanical phase dominated its latency, and a throttle stall names the
// log-pressure backoff. These causes were previously asserted only through
// the overload experiment; this pins them at the unit level.
func TestExplainTailQoSCauses(t *testing.T) {
	r := NewRecorder(0)

	// Shed at admission: zero-duration marker, A = queue depth at refusal.
	qs := r.Start(KWrite, "trail", "data0", 0, 2, 1000)
	qs.Point(PShed, 1000, 12, 0)
	qs.Finish(1000, true)

	// Deadline exceeded while throttled: the request spent its budget in a
	// throttle stall before being abandoned.
	qt := r.Start(KWrite, "trail", "data0", 8, 2, 2000)
	qt.ChildAB(PThrottle, 2000, 9_002_000, 1<<20, 0)
	qt.Point(PDeadline, 9_002_000, 2_000_000, 0)
	qt.Finish(9_002_000, true)

	// Deadline exceeded without a throttle span: plain overload queueing.
	qd := r.Start(KWrite, "trail", "data0", 16, 2, 3000)
	qd.ChildAB(PQueue, 3000, 8_003_000, 9, 0)
	qd.Point(PDeadline, 8_003_000, 1_000_000, 0)
	qd.Finish(8_003_000, true)

	// Throttled but completed: the stall dominates the latency.
	qc := r.Start(KWrite, "trail", "data0", 24, 2, 4000)
	qc.ChildAB(PThrottle, 4000, 6_004_000, 1<<20, 0)
	qc.Child(PQueue, 6_004_000, 6_004_100)
	qc.Command(cmd(6_004_100, phases{disk.Overhead: 300, disk.RotWait: 500, disk.Transfer: 400}), 0)
	qc.Finish(6_005_300, false)

	byID, causes := map[int64]TailEntry{}, map[string]int{}
	for _, q := range r.Requests() {
		byID[q.ID] = explain(q)
		causes[byID[q.ID].Cause]++
	}
	for id, want := range map[int64]string{
		1: "shed at admission (overload)",
		2: "deadline exceeded while throttled (overload)",
		3: "deadline exceeded under overload",
		4: "throttled against write-back progress (log pressure)",
	} {
		if got := byID[id].Cause; got != want {
			t.Errorf("request %d cause = %q, want %q", id, got, want)
		}
	}
	if got := causes["shed at admission (overload)"]; got != 1 {
		t.Errorf("cause histogram shed count = %d, want 1", got)
	}
	// The shed request's story is the overload even though no phase has any
	// duration; the throttled-but-completed one even though PThrottle
	// dominates legitimately.
	if byID[2].Dominant != PThrottle {
		t.Errorf("throttled-expired dominant = %v, want throttle", byID[2].Dominant)
	}
}

// Cluster redirection causes are pinned strings: cmd/rundiff's
// TestRunDirBlocks looks for them among a killed-shard run's slowest
// requests and README.md's kill-one-shard walkthrough quotes them, so they
// must not drift.
func TestExplainTailClusterCauses(t *testing.T) {
	r := NewRecorder(0)

	// Read failed over to the replica after the primary shard died.
	cf := r.Start(KRead, "cluster", "shard0", 0, 2, 1000)
	cf.Point(PFailover, 1000, 1, 0)
	cf.ChildAB(PSubRead, 1000, 5_001_000, 1, 0)
	cf.Finish(5_001_000, false)

	// Hedged read: replica copy raced the slow primary and won.
	ch := r.Start(KRead, "cluster", "shard2", 8, 2, 2000)
	ch.ChildAB(PSubRead, 2000, 3_002_000, 2, 0)
	ch.Point(PHedge, 1_002_000, 3, 1)
	ch.Finish(3_002_000, false)

	// Hedged read where the primary still won the race.
	cl := r.Start(KRead, "cluster", "shard2", 16, 2, 3000)
	cl.ChildAB(PSubRead, 3000, 2_503_000, 2, 0)
	cl.Point(PHedge, 1_003_000, 3, 0)
	cl.Finish(2_503_000, false)

	// Background rebuild copy replaying the dead shard from its replica.
	cr := r.Start(KWriteback, "cluster", "shard1", 24, 2, 4000)
	cr.ChildAB(PRebuild, 4000, 8_004_000, 17, 0)
	cr.Finish(8_004_000, false)

	// Plain write-both write: the slowest copy's span dominates.
	cw := r.Start(KWrite, "cluster", "shard3", 32, 2, 5000)
	cw.ChildAB(PSubWrite, 5000, 6_005_000, 3, 0)
	cw.Finish(6_005_000, false)

	// Plain primary-served read, no redirection.
	cp := r.Start(KRead, "cluster", "shard3", 40, 2, 6000)
	cp.ChildAB(PSubRead, 6000, 4_006_000, 3, 0)
	cp.Finish(4_006_000, false)

	byID, causes := map[int64]TailEntry{}, map[string]int{}
	for _, q := range r.Requests() {
		byID[q.ID] = explain(q)
		causes[byID[q.ID].Cause]++
	}
	for id, want := range map[int64]string{
		1: "failed over to replica after shard failure",
		2: "hedged to replica after slow primary (hedge won)",
		3: "hedged to replica after slow primary",
		4: "shard rebuild copy (replica replay)",
		5: "write-both replication (slowest copy acks)",
		6: "shard read (primary serving)",
	} {
		if got := byID[id].Cause; got != want {
			t.Errorf("request %d cause = %q, want %q", id, got, want)
		}
	}
	// The failover marker outranks the replica's mechanical phases: the
	// request is slow because it changed shards.
	if byID[1].Dominant != PSubRead {
		t.Errorf("failover dominant = %v, want subread", byID[1].Dominant)
	}
	if got := causes["failed over to replica after shard failure"]; got != 1 {
		t.Errorf("cause histogram failover count = %d, want 1", got)
	}
}

// Chrome export must be deterministic and pass ReadChrome's checks, async
// pairs and flow arrows included.
func TestWriteChromeDeterministic(t *testing.T) {
	mk := func() string {
		r := NewRecorder(0)
		for i := 1; i <= 3; i++ {
			record(r, i)
		}
		wb := r.Start(KWriteback, "trail", "data0", 8, 2, 9000)
		wb.Flow(2)
		wb.Child(PQueue, 9000, 9100)
		wb.Command(cmd(9100, phases{disk.Seek: 100, disk.Transfer: 100}), 0)
		wb.Finish(9300, false)
		return exportChrome(t, r)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatal("chrome export differs across identical recordings")
	}
	if _, err := trace.ReadChrome(strings.NewReader(a)); err != nil {
		t.Fatalf("chrome export rejected: %v\n%s", err, a)
	}
	if strings.Count(a, `"ph":"s"`) != 1 || strings.Count(a, `"ph":"f"`) != 1 {
		t.Fatalf("flow events wrong:\n%s", a)
	}
}

func TestPhaseAndKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		s := p.String()
		if s == "" || s == "phase?" || seen[s] {
			t.Fatalf("phase %d has bad/duplicate name %q", p, s)
		}
		seen[s] = true
	}
	if KWrite.String() != "write" || KRecover.String() != "recover" {
		t.Fatal("kind names wrong")
	}
}

// ChildPair lays out what two ChildAB calls would, dropping an empty half.
func TestChildPair(t *testing.T) {
	r := NewRecorder(0)
	for _, c := range []struct{ start, mid, end int64 }{{0, 10, 30}, {0, 0, 30}, {0, 30, 30}} {
		pair, two := r.Start(KWrite, "cluster", "shard0", 0, 2, 0), r.Start(KWrite, "cluster", "shard0", 0, 2, 0)
		pair.ChildPair(c.start, c.mid, c.end, 3, 5)
		two.ChildAB(PSubWrite, c.start, c.mid, 3, 0)
		two.ChildAB(PSubWrite, c.mid, c.end, 5, 0)
		if got, want := fmt.Sprint(pair.r.Spans), fmt.Sprint(two.r.Spans); got != want {
			t.Errorf("ChildPair%v = %s, want %s", c, got, want)
		}
	}
}

// retainedPerRequest records n requests with add and returns the live heap
// they hold per request, the recorder's ring included.
func retainedPerRequest(n int, add func(r *Recorder, at int64)) float64 {
	r := NewRecorder(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		add(r, int64(i)*1000)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// write and read record a cluster write-both, with its two copy children,
// and a cluster read, with one, finished at once.
func write(r *Recorder, at int64) {
	q := r.Start(KWrite, "cluster", "shard0", at, 2, at)
	q.ChildPair(at, at+100, at+150, 0, 1)
	q.Finish(at+150, false)
}

func read(r *Recorder, at int64) {
	q := r.Start(KRead, "cluster", "shard0", at, 2, at)
	q.ChildAB(PSubRead, at, at+100, 0, 0)
	q.Finish(at+100, false)
}

// Retained bytes a request, 1 B over what was measured (a size class is at
// least 16 B, so 1 B of slack lets no extra object pass): 228.6 B for a
// write-both and 189.3 B for a read, each with its share of the ring, of a
// slab and of an arena chunk. 233.0 and 201.0 while each request and its
// spans were objects of their own.
const writeBound, readBound = 229.6, 190.3

// A recorder keeps every request it holds on the heap, and a benchmark or a
// long traced run keeps the recorder, so the bytes a recorded request holds
// must not grow. Recording a request allocates nothing of its own: requests
// come from slabs, finished spans go to arena chunks and in-flight span
// lists are reused. A caller that keeps no handle keeps it on its stack,
// which holds only while Start is inlined.
func TestRecorderRetainedAllocations(t *testing.T) {
	const n = 10000
	// The first measurement in a process reads a few bytes low: whatever
	// the test binary left behind is swept in it.
	retainedPerRequest(n, read)
	w, rd := retainedPerRequest(n, write), retainedPerRequest(n, read)
	if w > writeBound || rd > readBound {
		t.Errorf("a recorded request holds %.1f B (write-both) and %.1f B (read), want at most %.1f and %.1f",
			w, rd, writeBound, readBound)
	}

	r := NewRecorder(1)
	write(r, 0) // fills the span list free list
	if allocs := testing.AllocsPerRun(1000, func() { write(r, 0) }); allocs != 0 {
		t.Errorf("a recorded write-both allocates %v objects, want 0", allocs)
	}
}

// A recorder that has evicted most of what it recorded holds only what its
// ring keeps: every slab and arena chunk whose requests were all evicted is
// garbage. Live heap stays within the ring's requests at the write-both
// bound, plus one part-used slab and arena chunk.
func TestRecorderEvictionAllocationsDie(t *testing.T) {
	const n = 2000
	r := NewRecorder(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10*n; i++ {
		write(r, int64(i)*1000)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	const chunk = 32 << 10
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := int64(n*writeBound) + 2*chunk; held > limit {
		t.Errorf("a recorder of %d requests fed %d holds %d B, want at most %d", n, 10*n, held, limit)
	}
	if r.Len() != n || r.Dropped() != 9*n {
		t.Errorf("len=%d dropped=%d, want %d/%d", r.Len(), r.Dropped(), n, 9*n)
	}
}

// Finished requests' spans sit side by side in one arena chunk, and requests
// in flight at once fill separate span lists. Each request must hold the
// spans it was given, and appending to one returned request's Spans must
// leave every other request's spans as recorded.
func TestRecorderSpansDoNotAliasAllocations(t *testing.T) {
	r := NewRecorder(0)
	record(r, 1) // leaves a span list on the free list
	// Two requests recorded at once, with more spans than a fresh
	// in-flight list holds, then one with more spans than an arena chunk.
	a := r.Start(KWrite, "trail", "data0", 0, 2, 0)
	b := r.Start(KRead, "trail", "data0", 8, 2, 0)
	var wantA, wantB []Span
	for i := int64(0); i < 2*scratchLen; i++ {
		a.ChildAB(PQueue, 10*i, 10*i+10, i, 0)
		b.Point(PStaging, 10*i, i, 1)
		wantA = append(wantA, Span{Phase: PQueue, Start: 10 * i, End: 10*i + 10, A: i})
		wantB = append(wantB, Span{Phase: PStaging, Start: 10 * i, End: 10 * i, A: i, B: 1})
	}
	b.Finish(20*scratchLen, false)
	a.Finish(20*scratchLen, false)
	for id := 4; id <= 8; id++ {
		record(r, id)
	}
	big := r.Start(KRecover, "trail", "log0", 0, 0, 0)
	for i := int64(0); i <= arenaSpans; i++ {
		big.ChildAB(PLocate, i, i+1, i, 0)
	}
	big.Finish(arenaSpans+1, false)
	record(r, 10)

	reqs := r.Requests()
	if got, want := fmt.Sprint(reqs[1].Spans, reqs[2].Spans), fmt.Sprint(wantB, wantA); got != want {
		t.Fatalf("the two requests recorded at once hold %s, want %s", got, want)
	}
	if n := len(reqs[8].Spans); n != arenaSpans+1 {
		t.Fatalf("the large request holds %d spans, want %d", n, arenaSpans+1)
	}
	recorded := make([]string, len(reqs))
	for i, req := range reqs {
		recorded[i] = fmt.Sprint(req.Spans)
	}
	for i := range reqs {
		_ = append(reqs[i].Spans, Span{Phase: PHedge, Start: -1, End: -1, A: -1, B: -1})
		for j, req := range reqs {
			if got := fmt.Sprint(req.Spans); got != recorded[j] {
				t.Fatalf("appending to request %d's spans changed request %d's: %s, want %s",
					reqs[i].ID, req.ID, got, recorded[j])
			}
		}
	}
}
