package sched

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/trace"
)

// scripted fails drive commands by ordinal: the commands numbered in
// timeouts (from 0) time out after delay, and a read of sector bad (0 =
// none) hits a media error.
type scripted struct {
	cmd      int
	timeouts []int
	delay    time.Duration
	bad      int64
}

func (s *scripted) CommandFault(sim.Time, bool, int64, int) disk.CommandFault {
	s.cmd++
	if slices.Contains(s.timeouts, s.cmd-1) {
		return disk.CommandFault{Err: blockdev.ErrTimeout, Delay: s.delay}
	}
	return disk.CommandFault{}
}

func (s *scripted) SectorFault(_ sim.Time, write bool, lba int64) error {
	if !write && s.bad != 0 && lba == s.bad {
		return blockdev.ErrMediaError
	}
	return nil
}

func (s *scripted) SectorWritten(int64) {}

func (s *scripted) Clone() disk.Injector { c := *s; return &c }

// shape renders a request's span children: a run of mechanical phases as
// "cmd", a retry as "retryN", anything else as "phase(A,B)".
func shape(r *span.Request) string {
	var parts []string
	for _, s := range r.Spans {
		switch {
		case s.Phase >= span.Mechanical(0) && s.Phase <= span.Mechanical(disk.NumPhases-1):
			if len(parts) == 0 || parts[len(parts)-1] != "cmd" {
				parts = append(parts, "cmd")
			}
		case s.Phase == span.PRetry:
			parts = append(parts, fmt.Sprintf("retry%d", s.A))
		default:
			parts = append(parts, fmt.Sprintf("%v(%d,%d)", s.Phase, s.A, s.B))
		}
	}
	return strings.Join(parts, " ")
}

// TestServe drives one read at sector 500 through Serve, behind ahead writes
// submitted first (dispatched before the read is submitted when settle > 0),
// and checks the re-issue count, the error, the span children, the KRetry
// events and the request the caller is left with.
func TestServe(t *testing.T) {
	const lba, count = 500, 2
	for _, tc := range []struct {
		name     string
		faults   scripted
		maxDepth int
		ahead    int
		settle   time.Duration
		deadline time.Duration // after submit; 0 = none
		retries  int

		wantN      int
		wantErr    error  // sentinel; nil = success
		wantMsg    string // full error text, when pinned
		wantShape  string
		wantRetryA []int64 // A of each KRetry event
		check      func(t *testing.T, req *Request, buf []byte)
	}{
		{
			name: "clean first attempt", retries: 3,
			wantShape: "cmd",
		},
		{
			name: "timeout, then success", retries: 3,
			faults:    scripted{timeouts: []int{0}, delay: time.Millisecond},
			wantN:     1,
			wantShape: "retry1 cmd", wantRetryA: []int64{1},
		},
		{
			name: "timeouts past the budget", retries: 2,
			faults: scripted{timeouts: []int{0, 1, 2, 3}, delay: time.Millisecond},
			wantN:  2, wantErr: blockdev.ErrTimeout,
			wantShape: "retry1 retry2 retry3", wantRetryA: []int64{1, 2},
		},
		{
			name: "media error", retries: 3,
			faults:  scripted{bad: lba + 1},
			wantErr: blockdev.ErrMediaError, wantShape: "retry1",
		},
		{
			name: "shed newcomer", retries: 3, maxDepth: 1, ahead: 1,
			wantErr: blockdev.ErrOverload, wantMsg: "sched: queue full (depth 1): " + blockdev.ErrOverload.Error(),
			wantShape: "shed(1,0)",
		},
		{
			name: "expired while queued", retries: 3, ahead: 1, settle: 100 * time.Microsecond,
			deadline: time.Microsecond,
			wantErr:  blockdev.ErrDeadlineExceeded,
			wantMsg:  "sched: queued past deadline: " + blockdev.ErrDeadlineExceeded.Error(),
			// Queued behind the busy write (depth 0: it is on the disk), then
			// expired when the write ends, 10.1 ms after the deadline.
			wantShape: "queue(0,0) deadline(10098999,0)",
		},
		{
			name: "re-issue past the deadline", retries: 3,
			faults:   scripted{timeouts: []int{0}, delay: 25 * time.Millisecond},
			deadline: 10 * time.Millisecond,
			wantErr:  blockdev.ErrDeadlineExceeded,
			wantMsg:  "retry past deadline: " + blockdev.ErrDeadlineExceeded.Error(),
			// The timeout is seen 25 ms in, 15 ms after the deadline.
			wantShape: "retry1 deadline(15000000,0)",
		},
		{
			// The first write is on the disk and the second queued when the
			// read arrives; the read's first attempt times out.
			name: "re-issue carries nothing over", retries: 3, ahead: 2, settle: 100 * time.Microsecond,
			faults:    scripted{timeouts: []int{2}, delay: time.Millisecond},
			wantN:     1,
			wantShape: "queue(1,1) retry1 cmd", wantRetryA: []int64{1},
			check: func(t *testing.T, req *Request, buf []byte) {
				// The re-issue found the queue empty and the drive fault-free.
				if req.DepthAtSubmit != 0 || req.WritesAhead != 0 {
					t.Errorf("re-issue snapshot depth %d, writes ahead %d: want 0, 0", req.DepthAtSubmit, req.WritesAhead)
				}
				if res := req.Result; res.Err != nil || res.Transferred != count {
					t.Errorf("result err %v, transferred %d: want the second attempt's", res.Err, res.Transferred)
				}
				if &req.Data[0] != &buf[0] {
					t.Error("the re-issued read lost its buffer")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			d := testDisk(env)
			d.SetInjector(&tc.faults)
			q := New(env, d, FIFO)
			q.SetMaxDepth(tc.maxDepth)
			tr := trace.New(0)
			q.SetTracer(tr, "q")
			rec := span.NewRecorder(0)
			buf := make([]byte, count*geom.SectorSize)
			req := &Request{LBA: lba, Count: count, Data: buf}
			var n int
			var err error
			env.Go("client", func(p *sim.Proc) {
				for i := 0; i < tc.ahead; i++ {
					q.Submit(&Request{Write: true, LBA: 9000, Count: 1, Data: sector(1)})
				}
				if tc.settle > 0 {
					p.Sleep(tc.settle)
				}
				if tc.deadline > 0 {
					req.Deadline = p.Now().Add(tc.deadline)
				}
				cursor := int64(p.Now())
				rq := rec.Start(span.KRead, "test", "q", lba, count, cursor)
				q.Submit(req)
				n, err = q.Serve(p, req, tc.retries, rq, cursor)
			})
			env.Run()

			if n != tc.wantN {
				t.Errorf("re-issues = %d, want %d", n, tc.wantN)
			}
			if (tc.wantErr == nil) != (err == nil) || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantMsg != "" && (err == nil || err.Error() != tc.wantMsg) {
				t.Errorf("err = %v, want %q", err, tc.wantMsg)
			}
			reqs := rec.Requests()
			if len(reqs) != 1 {
				t.Fatalf("%d span trees finished, want 1", len(reqs))
			}
			r := reqs[0]
			if got := shape(r); got != tc.wantShape {
				t.Errorf("spans = %q, want %q", got, tc.wantShape)
			}
			if r.Err != (err != nil) || r.End != int64(req.Result.End) {
				t.Errorf("span tree ends at %d (err %v), want %d (err %v)", r.End, r.Err, req.Result.End, err != nil)
			}
			if got, want := r.Attributed(), r.Latency(); got != want {
				t.Errorf("attributed %d ns of %d", got, want)
			}
			var retryA []int64
			for _, ev := range tr.Events() {
				if ev.Kind == trace.KRetry {
					if ev.Track != "q" || ev.LBA != lba || ev.Count != count {
						t.Errorf("retry event %+v, want track q, extent %d+%d", ev, lba, count)
					}
					retryA = append(retryA, ev.A)
				}
			}
			if !slices.Equal(retryA, tc.wantRetryA) {
				t.Errorf("retry events A = %v, want %v", retryA, tc.wantRetryA)
			}
			if tc.check != nil {
				tc.check(t, req, buf)
			}
		})
	}
}
