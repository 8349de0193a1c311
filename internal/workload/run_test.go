package workload

import (
	"errors"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

var (
	// errStall marks the request a fakeDev never completes.
	errStall = errors.New("stall")
	// errAny wants Run to return some error.
	errAny = errors.New("any error")
)

// fakeDev serves every request in svc and fails the Nth (1-based, in issue
// order) with fail[N]; errStall parks that request for good.
type fakeDev struct {
	svc      time.Duration
	fail     map[int]error
	requests int
}

func (d *fakeDev) ID() blockdev.DevID { return blockdev.DevID{Major: 1} }
func (d *fakeDev) Sectors() int64     { return 1 << 20 }

func (d *fakeDev) Read(p *sim.Proc, lba int64, count int) ([]byte, error) {
	return nil, d.serve(p)
}

func (d *fakeDev) Write(p *sim.Proc, lba int64, count int, data []byte) error {
	return d.serve(p)
}

func (d *fakeDev) serve(p *sim.Proc) error {
	d.requests++
	err := d.fail[d.requests]
	if err == errStall {
		sim.NewEvent(p.Env()).Wait(p)
	}
	p.Sleep(d.svc)
	return err
}

// writes returns a stream of one-sector writes at the given offsets.
func writes(name string, gap time.Duration, at ...time.Duration) Stream {
	s := Stream{Name: name, Gap: gap}
	for i, a := range at {
		s.Ops = append(s.Ops, TraceOp{At: a, Write: true, LBA: int64(i), Sectors: 1})
	}
	return s
}

func TestRun(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name     string
		load     Load
		fail     map[int]error
		err      error // want errors.Is(err, tc.err), or errAny; nil wants none
		requests int   // issued to the device
		timed    int64 // write latency samples
		shed     int64
		expired  int64
		failed   int64
		lagged   int
		elapsed  time.Duration
	}{
		{
			// The second stream fails its first write, which is the
			// device's second request, and stops; the first finishes.
			name: "closed stream stops at its first error",
			load: Load{Streams: []Stream{writes("a", 0, 0, 0, 0), writes("b", 0, 0, 0, 0)}},
			fail: map[int]error{2: blockdev.ErrMediaError},
			err:  blockdev.ErrMediaError, requests: 4, timed: 3, failed: 1, lagged: 2, elapsed: 3 * ms,
		},
		{
			name:     "open load counts outcomes and keeps going",
			load:     Load{Open: true, Streams: []Stream{writes("arrivals", 0, 0, ms, 2*ms, 3*ms, 4*ms)}},
			fail:     map[int]error{2: blockdev.ErrOverload, 3: blockdev.ErrDeadlineExceeded, 4: blockdev.ErrMediaError},
			requests: 5, timed: 2, shed: 1, expired: 1, failed: 1, elapsed: 5 * ms,
		},
		{
			name:     "untimed ops are issued but not timed",
			load:     Load{Untimed: 1, Streams: []Stream{writes("a", 3*ms, 0, 0, 0)}},
			requests: 3, timed: 2, lagged: 2, elapsed: 9 * ms,
		},
		{
			// The second op is due while the first is outstanding; the
			// third is due after the second completes and waits for it.
			name:     "lagged counts ops issued after their At",
			load:     Load{Streams: []Stream{writes("a", 0, 0, ms/2, 5*ms)}},
			requests: 3, timed: 3, lagged: 1, elapsed: 6 * ms,
		},
		{
			name:     "elapsed runs from the first issue at t=0 to the last completion",
			load:     Load{Streams: []Stream{writes("a", 0, 0, 10*ms), writes("b", 0, 4*ms)}},
			requests: 3, timed: 3, elapsed: 11 * ms,
		},
		{
			name:     "elapsed starts at a late first issue",
			load:     Load{Open: true, Streams: []Stream{writes("arrivals", 0, 2*ms, 3*ms)}},
			requests: 2, timed: 2, elapsed: 2 * ms,
		},
		{
			name: "a request that never completes is an error",
			load: Load{Open: true, Streams: []Stream{writes("arrivals", 0, 0, ms)}},
			fail: map[int]error{1: errStall},
			err:  errAny, requests: 2, timed: 1, elapsed: 2 * ms,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			dev := &fakeDev{svc: ms, fail: tc.fail}
			res, err := Run(env, dev, tc.load)
			switch {
			case tc.err == nil && err != nil:
				t.Fatalf("error %v", err)
			case tc.err != nil && err == nil:
				t.Fatalf("no error, want %v", tc.err)
			case tc.err != errAny && !errors.Is(err, tc.err):
				t.Fatalf("error %v, want %v", err, tc.err)
			}
			if dev.requests != tc.requests {
				t.Errorf("%d requests, want %d", dev.requests, tc.requests)
			}
			if res.Writes.Count() != tc.timed || res.Reads.Count() != 0 {
				t.Errorf("%d timed writes and %d reads, want %d and 0", res.Writes.Count(), res.Reads.Count(), tc.timed)
			}
			if res.Shed != tc.shed || res.Expired != tc.expired || res.Failed != tc.failed {
				t.Errorf("shed/expired/failed %d/%d/%d, want %d/%d/%d",
					res.Shed, res.Expired, res.Failed, tc.shed, tc.expired, tc.failed)
			}
			if res.Lagged != tc.lagged {
				t.Errorf("lagged %d, want %d", res.Lagged, tc.lagged)
			}
			if res.Elapsed != tc.elapsed {
				t.Errorf("elapsed %v, want %v", res.Elapsed, tc.elapsed)
			}
		})
	}
}

// An open load's payloads reach OnAck intact: the op at index i writes byte
// i+b at offset b.
func TestOnAckPayload(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	load := Load{Open: true, Streams: []Stream{writes("arrivals", 0, 0, 0, 0)}}
	acks := 0
	load.OnAck = func(lba int64, data []byte, _, _ sim.Time) {
		for b, got := range data {
			if got != byte(int(lba)+b) {
				t.Fatalf("op %d: byte %d = %d", lba, b, got)
			}
		}
		acks++
	}
	if _, err := Run(env, &fakeDev{svc: time.Millisecond}, load); err != nil || acks != 3 {
		t.Fatalf("%d acks, error %v", acks, err)
	}
}
