package sched

import (
	"testing"

	"tracklog/internal/geom"
	"tracklog/internal/sim"
)

// refPopLOOK is the LOOK pick as it stood before the in-place scan: the two
// lists concatenated into a scratch slice, the elevator choice made over
// that, the chosen request then searched for and removed. Kept as the
// reference popLOOK is held to.
func refPopLOOK(q *Queue) *Request {
	all := make([]*Request, 0, q.Depth())
	all = append(all, q.reads...)
	all = append(all, q.writes...)
	req := all[refLookIndex(q, all)]
	for i, r := range q.reads {
		if r == req {
			return q.removeRead(i)
		}
	}
	for i, r := range q.writes {
		if r == req {
			return q.removeWrite(i)
		}
	}
	panic("reference LOOK picked unknown request")
}

func refLookIndex(q *Queue, list []*Request) int {
	pickDir := func(up bool) (int, bool) {
		best, found := -1, false
		for i, r := range list {
			inDir := (up && r.LBA >= q.lastLBA) || (!up && r.LBA <= q.lastLBA)
			if !inDir {
				continue
			}
			if !found {
				best, found = i, true
				continue
			}
			d1, d2 := absDelta(r.LBA, q.lastLBA), absDelta(list[best].LBA, q.lastLBA)
			if d1 < d2 {
				best = i
			}
		}
		return best, found
	}
	if i, ok := pickDir(q.sweepUp); ok {
		return i
	}
	q.sweepUp = !q.sweepUp
	i, ok := pickDir(q.sweepUp)
	if !ok {
		panic("reference lookIndex on empty list")
	}
	return i
}

// TestPopLOOKMatchesReference drains random queues pick by pick through the
// in-place scan and through the concatenating reference, from both sweep
// directions, with the head moving as the worker moves it. LBAs come from a
// small range so that equal distances on either side of the head, equal LBAs
// across the two lists and requests exactly at the head all occur.
func TestPopLOOKMatchesReference(t *testing.T) {
	rng := sim.NewRand(29)
	for trial := 0; trial < 400; trial++ {
		var reqs []*Request
		for n := 1 + rng.Intn(40); n > 0; n-- {
			reqs = append(reqs, &Request{Write: rng.Intn(2) == 0, LBA: int64(rng.Intn(24)), Count: 1 + rng.Intn(3)})
		}
		got, ref := &Queue{}, &Queue{}
		for _, q := range []*Queue{got, ref} {
			q.lastLBA, q.sweepUp = int64(rng.Intn(24)), trial%2 == 0
			for _, r := range reqs {
				if r.Write {
					q.writes = append(q.writes, r)
				} else {
					q.reads = append(q.reads, r)
				}
			}
		}
		ref.lastLBA = got.lastLBA
		for step := 0; ref.Depth() > 0; step++ {
			want, have := refPopLOOK(ref), got.popLOOK(got.reads, got.writes)
			if have != want {
				t.Fatalf("trial %d step %d: picked LBA %d write=%v, reference LBA %d write=%v",
					trial, step, have.LBA, have.Write, want.LBA, want.Write)
			}
			if got.sweepUp != ref.sweepUp || got.Depth() != ref.Depth() {
				t.Fatalf("trial %d step %d: sweepUp %v depth %d, reference %v %d",
					trial, step, got.sweepUp, got.Depth(), ref.sweepUp, ref.Depth())
			}
			got.lastLBA = have.LBA + int64(have.Count) - 1
			ref.lastLBA = got.lastLBA
		}
	}
}

// TestReadPriorityLOOKMatchesReference: the read-priority policy's picks —
// LOOK over the reads while there are any, then over the writes — agree
// with the reference's single-list choice.
func TestReadPriorityLOOKMatchesReference(t *testing.T) {
	rng := sim.NewRand(31)
	env := sim.NewEnv() // pick consults the clock for urgent deadlines
	defer env.Close()
	for trial := 0; trial < 200; trial++ {
		got, ref := &Queue{env: env, policy: ReadPriorityLOOK}, &Queue{}
		got.lastLBA, got.sweepUp = int64(rng.Intn(24)), trial%2 == 0
		ref.lastLBA, ref.sweepUp = got.lastLBA, got.sweepUp
		for n := 1 + rng.Intn(30); n > 0; n-- {
			r := &Request{Write: rng.Intn(2) == 0, LBA: int64(rng.Intn(24)), Count: 1}
			for _, q := range []*Queue{got, ref} {
				if r.Write {
					q.writes = append(q.writes, r)
				} else {
					q.reads = append(q.reads, r)
				}
			}
		}
		for step := 0; ref.Depth() > 0; step++ {
			var want *Request
			if len(ref.reads) > 0 {
				want = ref.removeRead(refLookIndex(ref, ref.reads))
			} else {
				want = ref.removeWrite(refLookIndex(ref, ref.writes))
			}
			if have := got.pick(); have != want || got.sweepUp != ref.sweepUp {
				t.Fatalf("trial %d step %d: picked LBA %d write=%v, reference LBA %d write=%v",
					trial, step, have.LBA, have.Write, want.LBA, want.Write)
			}
			got.lastLBA = want.LBA
			ref.lastLBA = want.LBA
		}
	}
}

// TestDoAllocations: at depth 32 an operation allocates its caller's Request
// and nothing else — no completion event, no waiter list, no scratch slice
// for the pick. Writes go over sectors already on the media, so the drive
// adds nothing.
func TestDoAllocations(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	d := testDisk(env)
	q := New(env, d, LOOK)
	const clients = 32
	data := make([]byte, 8*geom.SectorSize)
	d.MediaWrite(0, make([]byte, clients*64*geom.SectorSize))
	ops := 0
	for c := 0; c < clients; c++ {
		env.Go("client", func(p *sim.Proc) {
			for i := 0; ; i++ {
				q.Do(p, &Request{Write: true, LBA: int64(c*64 + i%8*8), Count: 8, Data: data})
				ops++
			}
		})
	}
	var deadline sim.Time
	measured := 0
	perRun := testing.AllocsPerRun(1, func() {
		before := ops
		deadline = deadline.Add(20e9) // 20 virtual seconds, about a thousand commands
		env.RunUntil(deadline)
		measured = ops - before
	})
	if measured < 500 {
		t.Fatalf("only %d operations in the measured window", measured)
	}
	if perOp := perRun / float64(measured); perOp > 1.01 { // a stray runtime allocation or two in ~1800 operations
		t.Fatalf("%.3f allocations per Do at depth %d, want 1 (the request)", perOp, clients)
	}
}
