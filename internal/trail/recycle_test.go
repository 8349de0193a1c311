package trail

// Who owns a request's bookkeeping (DESIGN.md §4): pending writes, staging
// entries, records and platter-read requests come off the driver's free lists
// and go back where their lifecycle ends. These tests drive every list through
// the rare paths of that lifecycle, and pin what a request still allocates.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/crashexplore"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/qos"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/stddisk"
)

// stepFault is a fault plan re-armed between steps: the next timeouts write
// commands time out, every command finds the device failed once dead is set,
// and a write reaching sector badLBA hits a media error.
type stepFault struct {
	timeouts int
	dead     bool
	badLBA   int64
}

func (f *stepFault) CommandFault(_ sim.Time, write bool, _ int64, _ int) disk.CommandFault {
	switch {
	case f.dead:
		return disk.CommandFault{Err: fmt.Errorf("injected: %w", blockdev.ErrDeviceFailed)}
	case f.timeouts > 0 && write:
		f.timeouts--
		return disk.CommandFault{Err: fmt.Errorf("injected: %w", blockdev.ErrTimeout), Delay: time.Millisecond}
	}
	return disk.CommandFault{}
}

func (f *stepFault) SectorWritten(int64) {}

func (f *stepFault) Clone() disk.Injector { c := *f; return &c }

func (f *stepFault) SectorFault(_ sim.Time, write bool, lba int64) error {
	if write && lba == f.badLBA {
		return fmt.Errorf("injected at lba %d: %w", lba, blockdev.ErrMediaError)
	}
	return nil
}

// Slot s is the slotSectors-sector extent at LBA 64*s; version v of it is
// crashexplore.Payload(s, v, slotSectors).
const (
	slots       = 16
	slotSectors = 4
)

func slotLBA(s int) int64 { return int64(s * 64) }

// ledger is a driver under test and the newest acknowledged version of every
// slot. Each slot has at most one writer at a time, so acks arrive in version
// order.
type ledger struct {
	t      *testing.T
	env    *sim.Env
	drv    *Driver
	dev    *DataDev
	issued [slots]int
	acked  [slots]int
}

func newLedger(t *testing.T, env *sim.Env, drv *Driver) *ledger {
	return &ledger{t: t, env: env, drv: drv, dev: drv.Dev(0)}
}

// burst starts one writer process per slot in ss, each writing the slot's
// next n versions with opts, a gap apart. An acknowledged version becomes the
// one every later read must return; a failed write is not acknowledged.
func (l *ledger) burst(ss []int, n int, gap time.Duration, opts blockdev.Options) {
	for _, s := range ss {
		l.env.Go(fmt.Sprintf("slot-%d", s), func(p *sim.Proc) {
			for range n {
				l.issued[s]++
				v := l.issued[s]
				if l.dev.WriteOpts(p, slotLBA(s), slotSectors, crashexplore.Payload(s, v, slotSectors), opts) == nil {
					l.acked[s] = v
				}
				p.Sleep(gap)
			}
		})
	}
}

// check audits the driver after a step: its invariants hold, a read of every
// slot returns exactly the newest acknowledged version, and every object on
// its free lists is zero and listed once.
func (l *ledger) check(step string) {
	l.t.Helper()
	if err := l.drv.CheckInvariants(); err != nil {
		l.t.Fatalf("%s: %v", step, err)
	}
	l.env.Go("readback", func(p *sim.Proc) {
		for s := range slots {
			buf, err := l.dev.Read(p, slotLBA(s), slotSectors)
			if err != nil {
				l.t.Errorf("%s: read slot %d: %v", step, s, err)
				continue
			}
			if v, ok := crashexplore.ParseVersion(buf, s, slotSectors); !ok || v != l.acked[s] {
				l.t.Errorf("%s: slot %d reads version %d (consistent %v), newest acknowledged is %d", step, s, v, ok, l.acked[s])
			}
		}
	})
	l.env.Run()
	auditFree(l.t, step, l.drv)
}

// auditFree fails t unless every object on d's free lists is zero and listed
// once, and every free image is listed once and neither staged nor a
// write-back flight's buffer.
func auditFree(t *testing.T, step string, d *Driver) {
	t.Helper()
	auditList(t, step+": pending writes", &d.free.writes, zero)
	auditList(t, step+": staging entries", &d.free.entries, func(e *bufEntry) bool {
		// A free entry may keep a grown refs array, empty and cleared, and
		// a spanIDs array, empty.
		rest := *e
		rest.refs, rest.spanIDs = nil, nil
		return zero(&rest) && len(e.refs) == 0 && len(e.spanIDs) == 0 &&
			!slices.ContainsFunc(e.refs[:cap(e.refs)], func(r recordRef) bool { return r != recordRef{} })
	})
	auditList(t, step+": records", &d.free.records, zero)
	auditList(t, step+": read requests", &d.free.reads, zero)
	auditImages(t, step, d)
}

// auditImages fails t if a free image is listed twice or is a staged entry's
// image, or if a write-back slot's buffer, which its flights carry, is a free
// or a staged image.
func auditImages(t *testing.T, step string, d *Driver) {
	t.Helper()
	held := map[*byte]string{}
	for k, e := range d.staging {
		held[&e.data[0]] = fmt.Sprintf("staged at lba %d", k.lba)
	}
	for k, class := range d.free.images.free {
		for _, c := range class {
			if held[&c[0]] == "free" {
				t.Errorf("%s: image %p is on the free list twice", step, &c[0])
			} else if why, ok := held[&c[0]]; ok {
				t.Errorf("%s: free image %p is %s", step, &c[0], why)
			} else if cap(c) < 1<<k {
				t.Errorf("%s: free image %p of %d bytes is in class %d", step, &c[0], cap(c), k)
			}
			held[&c[0]] = "free"
		}
	}
	for dev, w := range d.windows {
		for i, f := range w {
			if cap(f.buf) == 0 {
				continue
			}
			if why, ok := held[&f.buf[:1][0]]; ok {
				t.Errorf("%s: data disk %d's write-back slot %d carries an image that is %s", step, dev, i, why)
			}
		}
	}
}

// auditList fails t unless every object on l is listed once and, by isZero,
// holds nothing.
func auditList[T any](t *testing.T, what string, l *freeList[T], isZero func(*T) bool) {
	t.Helper()
	seen := map[*T]bool{}
	for _, x := range l.free.Live() {
		if seen[x] {
			t.Errorf("%s: %p is on the free list twice", what, x)
		}
		seen[x] = true
		if !isZero(x) {
			t.Errorf("%s: free %p is not zero", what, x)
		}
	}
}

// zero reports whether *x is its type's zero value.
func zero[T any](x *T) bool { return reflect.ValueOf(x).Elem().IsZero() }

// TestRecycledBookkeepingSurvivesRarePaths takes one driver through the paths
// where a pooled object's lifecycle ends early or runs twice: a version
// acknowledged while the previous one is being written back, a write-back
// abandoned on a media fault (its record references go back on the entry), a
// write whose deadline passes in the log queue, log writes retried and
// requeued until one writer's retry budget runs out, and every log disk
// failing under queued writes. A second driver is cut off by a power failure
// mid-burst and recovered.
func TestRecycledBookkeepingSurvivesRarePaths(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	log := disk.New(env, testLogParams())
	if err := Format(log); err != nil {
		t.Fatal(err)
	}
	slow := testDataParams("data")
	slow.RPM = 600 // 100 ms a revolution: a write-back outlasts several log writes
	data := disk.New(env, slow)
	// Background writes get one retry; the rest keep the driver's default.
	drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{QoS: &qos.Policy{BackgroundRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	logFault, dataFault := &stepFault{badLBA: -1}, &stepFault{badLBA: -1}
	log.SetInjector(logFault)
	data.SetInjector(dataFault)
	l := newLedger(t, env, drv)

	// Acks that land while a write-back of the same extent is in flight. The
	// hook audits the free images and the write-back slots' buffers at every
	// acknowledgement and flight boundary of every step.
	inFlight, midFlightAcks := map[int64]bool{}, 0
	env.SetProbeHook(func(ev sim.ProbeEvent) bool {
		switch ev.Kind {
		case sim.ProbeWBStart:
			inFlight[ev.LBA] = true
		case sim.ProbeWBEnd:
			delete(inFlight, ev.LBA)
		case sim.ProbeAck:
			if inFlight[ev.LBA] {
				midFlightAcks++
			}
		default:
			return false
		}
		auditImages(t, fmt.Sprintf("at %v", ev.At), drv)
		return false
	})
	l.burst([]int{0, 1, 2, 3}, 6, 0, blockdev.Options{})
	env.Run()
	if midFlightAcks == 0 {
		t.Fatal("supersede: no version was acknowledged during its predecessor's write-back")
	}
	l.check("supersede mid-flight")
	if d := &drv.free; d.writes.free.Len() == 0 || d.entries.free.Len() == 0 ||
		d.records.free.Len() == 0 || d.reads.free.Len() == 0 ||
		!slices.ContainsFunc(d.images.free[:], func(class [][]byte) bool { return len(class) > 0 }) {
		t.Fatal("a free list is still empty after the first step")
	}

	// The write-back of slot 4 fails on the platter and is abandoned; the
	// version stays staged, pinned, and readable. Once the sector heals, the
	// next version commits both records.
	dataFault.badLBA = slotLBA(4)
	l.burst([]int{4, 5}, 1, 0, blockdev.Options{})
	env.Run()
	if drv.Stats().AbandonedWritebacks == 0 {
		t.Fatal("write-back fault: nothing abandoned")
	}
	l.check("abandoned write-back")
	dataFault.badLBA = -1
	l.burst([]int{4}, 2, 0, blockdev.Options{})
	env.Run()
	if drv.StagedBytes() != 0 {
		t.Fatalf("healed write-back: %d bytes still staged", drv.StagedBytes())
	}
	l.check("healed write-back")

	// Slot 6 occupies the log writer; slots 7-9 queue behind it with
	// deadlines that pass before it is done.
	l.burst([]int{6}, 1, 0, blockdev.Options{})
	env.Go("late", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		l.burst([]int{7, 8, 9}, 1, 0, blockdev.Options{Deadline: p.Now().Add(200 * time.Microsecond)})
	})
	expired := drv.Stats().DeadlineExceeded
	env.Run()
	if drv.Stats().DeadlineExceeded-expired != 3 {
		t.Fatalf("deadline: %d writes expired in the log queue, want 3", drv.Stats().DeadlineExceeded-expired)
	}
	l.check("deadline expiry")

	// Record writes time out under a queue of writers: batches are retried
	// and requeued ahead of the writers behind them, and slot 13's background
	// write, first in the queue, fails on its second timeout.
	logFault.timeouts = 3
	retries, failed := drv.Stats().LogWriteRetries, drv.Stats().FailedWrites
	l.burst([]int{13}, 3, 0, blockdev.Options{Class: blockdev.ClassBackground})
	l.burst([]int{10, 11, 12}, 3, 0, blockdev.Options{})
	env.Run()
	if drv.Stats().LogWriteRetries-retries != 3 || drv.Stats().FailedWrites-failed != 1 {
		t.Fatalf("log retry: %d record writes retried and %d writes failed, want 3 and 1",
			drv.Stats().LogWriteRetries-retries, drv.Stats().FailedWrites-failed)
	}
	l.check("log-write retry")

	// The only log disk dies with writers queued: the queued writes fail.
	failed = drv.Stats().FailedWrites
	l.burst([]int{14, 15, 0}, 2, 0, blockdev.Options{})
	env.Go("killer", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		logFault.dead = true
	})
	env.Run()
	if drv.Stats().LogDiskFailures != 1 || drv.Stats().FailedWrites == failed {
		t.Fatalf("log death: %d log disks failed, %d writes failed", drv.Stats().LogDiskFailures, drv.Stats().FailedWrites-failed)
	}
	l.check("all log disks failed")

	t.Run("power cut mid-burst", func(t *testing.T) {
		env := sim.NewEnv()
		log := disk.New(env, testLogParams())
		if err := Format(log); err != nil {
			t.Fatal(err)
		}
		data := disk.New(env, testDataParams("data"))
		drv, err := NewDriver(env, log, []*disk.Disk{data}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		l := newLedger(t, env, drv)
		l.burst([]int{0, 1, 2, 3, 4, 5, 6, 7}, 1000, 300*time.Microsecond, blockdev.Options{})
		env.RunUntil(sim.Time(60 * time.Millisecond))
		env.Close()
		if drv.OutstandingRecords() == 0 || drv.LogQueueLen() == 0 {
			t.Fatalf("cut with %d records outstanding and %d writes queued, want both", drv.OutstandingRecords(), drv.LogQueueLen())
		}
		drv.PowerCut()
		if err := drv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		auditFree(t, "power cut", drv)

		env2 := sim.NewEnv()
		defer env2.Close()
		log.Reattach(env2)
		data.Reattach(env2)
		id := blockdev.DevID{Major: 8}
		devs := map[blockdev.DevID]blockdev.Device{id: stddisk.New(env2, data, id, sched.LOOK)}
		var rerr error
		env2.Go("recover", func(p *sim.Proc) { _, rerr = Recover(p, log, devs, RecoverOptions{}) })
		env2.Run()
		if rerr != nil {
			t.Fatalf("recover: %v", rerr)
		}
		for s := range slots {
			v, ok := crashexplore.ParseVersion(data.MediaRead(slotLBA(s), slotSectors), s, slotSectors)
			if !ok || v < l.acked[s] {
				t.Errorf("slot %d recovered version %d (consistent %v), newest acknowledged is %d", s, v, ok, l.acked[s])
			}
		}
	})
}

// TestRequestPathAllocations pins what a request allocates once its
// bookkeeping and staging chunks are recycled, on the paper's drives: a
// drained 4 KB write nothing (its chunk is the last write's, a media slab
// share rounds to 0), a platter read or a staging hit into the caller's
// buffer nothing, and a plain one the buffer it returns.
func TestRequestPathAllocations(t *testing.T) {
	env, drv := paperRig(t)
	defer env.Close()
	dev := drv.Dev(0)
	buf := make([]byte, benchSectors*geom.SectorSize)
	into := blockdev.Options{Into: make([]byte, benchSectors*geom.SectorSize)}
	var write, platter, platterInto, staged, stagedInto float64
	env.Go("client", func(p *sim.Proc) {
		i := 0
		write = testing.AllocsPerRun(200, func() {
			i++
			if err := dev.Write(p, spreadLBA(i, dev), benchSectors, buf); err != nil {
				t.Error(err)
			}
			p.Sleep(40 * time.Millisecond) // the write-back lands; staging empties
		})
		read := func(lba int64, opts blockdev.Options) {
			got, err := dev.ReadOpts(p, lba, benchSectors, opts)
			if err != nil {
				t.Error(err)
			} else if opts.Into != nil && &got[0] != &opts.Into[0] {
				t.Error("a read with Options.Into returned another buffer")
			}
		}
		platter = testing.AllocsPerRun(200, func() { i++; read(spreadLBA(i, dev), blockdev.Options{}) })
		platterInto = testing.AllocsPerRun(200, func() { i++; read(spreadLBA(i, dev), into) })
		if err := dev.Write(p, 0, benchSectors, buf); err != nil {
			t.Error(err)
		}
		staged = testing.AllocsPerRun(200, func() { read(0, blockdev.Options{}) })
		stagedInto = testing.AllocsPerRun(200, func() { read(0, into) })
	})
	env.Run()
	if got := drv.Stats().ReadsFromStaging; got != 402 {
		t.Fatalf("%d reads served from staging, want the 402 staging hits", got)
	}
	t.Logf("allocations: drained write %v, platter read %v (into a buffer %v), staging hit %v (into a buffer %v)",
		write, platter, platterInto, staged, stagedInto)
	if write > 0 {
		t.Errorf("a drained 4 KB write allocates %v times, want 0 (a recycled chunk, a media slab share)", write)
	}
	if platter > 1 || staged > 1 {
		t.Errorf("a platter read allocates %v times and a staging hit %v, want <= 1 (the returned buffer)", platter, staged)
	}
	if platterInto > 0 || stagedInto > 0 {
		t.Errorf("into the caller's buffer, a platter read allocates %v times and a staging hit %v, want 0", platterInto, stagedInto)
	}
}

// TestSupersedingWriteSteadyStateAllocations: a write that supersedes a
// staged extent whose write-back is still queued adds a second record
// reference to its entry, which grows the entry's refs past ref0, and with a
// span recorder attached a second client span ID to its spanIDs. A recycled
// entry keeps both arrays, cleared, so once the free entries have each grown
// them, rounds of superseding writes allocate nothing of the driver's own:
// nothing without a recorder, and with one no more than the recorder's own
// cost: at most one allocation for each request it opens and each flow edge
// it appends, and its slabs.
func TestSupersedingWriteSteadyStateAllocations(t *testing.T) {
	for _, recorded := range []bool{false, true} {
		t.Run(fmt.Sprintf("recorder=%v", recorded), func(t *testing.T) {
			env, drv := paperRig(t)
			defer env.Close()
			var rec *span.Recorder
			if recorded {
				rec = span.NewRecorder(0)
				drv.SetRecorder(rec)
			}
			dev := drv.Dev(0)
			buf := make([]byte, benchSectors*geom.SectorSize)
			const rounds = 20
			var allocs float64
			var superseded int64
			env.Go("client", func(p *sim.Proc) {
				write := func(i int) {
					if err := dev.Write(p, spreadLBA(i, dev), benchSectors, buf); err != nil {
						t.Error(err)
					}
				}
				// Twelve writes back the data disk up behind its write-back
				// window; the last four are written again while their
				// write-backs queue.
				round := func() {
					for i := range 12 {
						write(i)
					}
					for i := 11; i >= 8; i-- {
						write(i)
					}
					p.Sleep(2 * time.Second) // the write-backs land; staging empties
				}
				for range 5 {
					round()
				}
				before := drv.Stats().SupersededWriteBacks
				allocs = testing.AllocsPerRun(rounds, round)
				superseded = drv.Stats().SupersededWriteBacks - before
			})
			env.Run()
			if superseded < 3*(rounds+1) {
				t.Fatalf("%d writes superseded a queued version in %d rounds, want at least 3 a round", superseded, rounds+1)
			}
			if n := drv.free.entries.free.Len(); n == 0 || len(drv.staging) != 0 {
				t.Fatalf("%d free entries, %d staged; want the staging drained onto the free list", n, len(drv.staging))
			}
			// With a recorder, its handles, span lists and flow lists come
			// from slabs, arenas and free lists: its chunks and ring growth
			// must come to at most half an allocation a write.
			var want float64
			if recorded {
				want = 0.5 * 16
			}
			if allocs > want {
				t.Errorf("a round of 16 writes, 4 of them superseding, allocates %v times, want at most %v", allocs, want)
			}
		})
	}
}
