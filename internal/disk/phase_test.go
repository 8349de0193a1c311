package disk_test

import (
	"bytes"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/timeline"
	"tracklog/internal/trace"
)

// views spells out, apart from the drive's own table, how each phase shows
// in the trace, on the timeline lane and in a span tree.
var views = [disk.NumPhases]struct {
	kind trace.Kind
	lane string
	span span.Phase
}{
	disk.Turnaround: {trace.KTurnaround, "turnaround", span.PTurnaround},
	disk.Overhead:   {trace.KOverhead, "overhead", span.POverhead},
	disk.Seek:       {trace.KSeek, "seek", span.PSeek},
	disk.HeadSwitch: {trace.KHeadSwitch, "head_switch", span.PHeadSwitch},
	disk.Settle:     {trace.KSettle, "settle", span.PSettle},
	disk.RotWait:    {trace.KRotWait, "rotate_wait", span.PRotWait},
	disk.Transfer:   {trace.KTransfer, "transfer", span.PTransfer},
}

// sectorFault is an injector whose one bad sector fails every command that
// reaches it.
type sectorFault int64

func (sectorFault) CommandFault(sim.Time, bool, int64, int) disk.CommandFault {
	return disk.CommandFault{}
}

func (f sectorFault) SectorFault(_ sim.Time, _ bool, lba int64) error {
	if lba == int64(f) {
		return blockdev.ErrMediaError
	}
	return nil
}

func (sectorFault) SectorWritten(int64) {}

func (f sectorFault) Clone() disk.Injector { return f }

// TestPhaseViewsAgree runs a command on a drive with a tracer and a timeline
// attached and checks that the four views of its mechanical phases agree,
// phase by phase: the trace events, the lane occupancy and Result.Phases,
// and for a successful command the span children Req.Command lays out.
// Each view must also tile the command's [Start, End).
func TestPhaseViewsAgree(t *testing.T) {
	p := disk.SmallParams()
	g := &p.Geom
	// Ten sectors before the end of cylinder 5's last track: a 20-sector
	// command crosses onto cylinder 6, head 0.
	crossing := g.ToLBA(geom.CHS{Cyl: 5, Head: 1, Sector: g.SPTAt(5) - 10})
	for _, tc := range []struct {
		name string
		inj  disk.Injector
		// prior runs back to back before req, so that a write pays
		// turnaround.
		prior *disk.Request
		req   disk.Request
		paid  []disk.Phase
	}{
		{
			name:  "write crossing a track",
			prior: &disk.Request{LBA: 0, Count: 1},
			req:   disk.Request{Write: true, LBA: crossing, Count: 20, Data: bytes.Repeat([]byte{7}, 20*geom.SectorSize)},
			paid:  []disk.Phase{disk.Turnaround, disk.Overhead, disk.Seek, disk.HeadSwitch, disk.Settle, disk.RotWait, disk.Transfer},
		},
		{
			name: "read cut short by a sector fault",
			inj:  sectorFault(crossing + 5),
			req:  disk.Request{LBA: crossing, Count: 20},
			paid: []disk.Phase{disk.Overhead, disk.Seek, disk.HeadSwitch, disk.RotWait, disk.Transfer},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			d := disk.New(env, p)
			tr := trace.New(0)
			d.SetTracer(tr, "d")
			agg := timeline.New(time.Millisecond)
			d.SetTimeline(agg, "d")
			if tc.inj != nil {
				d.SetInjector(tc.inj)
			}
			var prior, res disk.Result
			env.Go("cmd", func(pr *sim.Proc) {
				if tc.prior != nil {
					prior = d.Access(pr, tc.prior)
				}
				res = d.Access(pr, &tc.req)
			})
			end := env.Run()
			if (res.Err != nil) != (tc.inj != nil) {
				t.Fatalf("err = %v, injector %v", res.Err, tc.inj)
			}
			for _, ph := range tc.paid {
				if res.Phases[ph] <= 0 {
					t.Errorf("the command paid no %s", views[ph].lane)
				}
			}

			// Result.Phases tiles [Start, End).
			var sum time.Duration
			for _, dur := range res.Phases {
				sum += dur
			}
			if sum != res.Latency() {
				t.Errorf("phases sum to %v, latency %v", sum, res.Latency())
			}

			// The phase events inside the command are contiguous from Start
			// to End and add up to Result.Phases, kind by kind.
			var got [disk.NumPhases]time.Duration
			cur := int64(res.Start)
			for _, ev := range tr.Events() {
				if ev.At < int64(res.Start) || ev.At >= int64(res.End) || ev.Kind == trace.KCommand || ev.Kind == trace.KFault {
					continue
				}
				ph := phaseOfKind(t, ev.Kind)
				if ev.At != cur {
					t.Errorf("%s event at %d, want %d", ev.Kind, ev.At, cur)
				}
				cur = ev.At + ev.Dur
				got[ph] += time.Duration(ev.Dur)
			}
			if cur != int64(res.End) {
				t.Errorf("phase events end at %d, command at %d", cur, res.End)
			}
			if got != res.Phases {
				t.Errorf("trace phases %v, Result.Phases %v", got, res.Phases)
			}

			// Lane occupancy per phase is the prior command's plus this
			// one's; with idle and fault it covers the whole run.
			agg.Finish(int64(end))
			var csv bytes.Buffer
			if err := agg.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			tl, err := timeline.Parse(&csv)
			if err != nil {
				t.Fatal(err)
			}
			occ := func(state string) time.Duration {
				var ns float64
				if s := tl.Lookup("disk", "d", "state/"+state); s != nil {
					for _, pt := range s.Points {
						ns += pt.Value
					}
				}
				return time.Duration(ns)
			}
			total := occ("idle") + occ("fault")
			for ph, v := range views {
				total += occ(v.lane)
				if want := prior.Phases[ph] + res.Phases[ph]; occ(v.lane) != want {
					t.Errorf("lane %s: %v, want %v", v.lane, occ(v.lane), want)
				}
			}
			if total != time.Duration(end) {
				t.Errorf("lane states cover %v of %v", total, time.Duration(end))
			}

			if res.Err != nil {
				return
			}
			// The span children are Result.Phases laid end to end.
			rec := span.NewRecorder(0)
			q := rec.Start(span.KWrite, "std", "d", tc.req.LBA, tc.req.Count, int64(res.Start))
			q.Command(&res, d.Params().RotPeriod())
			q.Finish(int64(res.End), false)
			rq := rec.Requests()[0]
			cur = int64(res.Start)
			for _, s := range rq.Spans {
				if s.Start != cur {
					t.Errorf("%s span at %d, want %d", s.Phase, s.Start, cur)
				}
				cur = s.End
				if s.Phase == span.PRotWait && s.A != int64(d.Params().RotPeriod()) {
					t.Errorf("rotwait span A = %d, want the rotation period", s.A)
				}
			}
			if cur != int64(res.End) {
				t.Errorf("spans end at %d, command at %d", cur, res.End)
			}
			for ph, v := range views {
				if got := time.Duration(rq.PhaseTotal(v.span)); got != res.Phases[ph] {
					t.Errorf("%s spans: %v, Result.Phases %v", v.span, got, res.Phases[ph])
				}
			}
		})
	}
}

// phaseOfKind returns the phase whose trace events have kind k.
func phaseOfKind(t *testing.T, k trace.Kind) disk.Phase {
	t.Helper()
	for ph, v := range views {
		if v.kind == k {
			return disk.Phase(ph)
		}
	}
	t.Fatalf("event kind %s is no phase", k)
	return 0
}
