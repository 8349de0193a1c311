package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/disk"
	"tracklog/internal/geom"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/span"
	"tracklog/internal/trail"
)

// Fig4Row is one Q point of Figure 4: recovery cost with Q pending write
// records on the log disk at crash time.
type Fig4Row struct {
	// Q is the requested backlog; RecordsFound is what recovery actually
	// reconstructed (>= Q − a few that committed while building up).
	Q            int
	RecordsFound int
	// Locate/Rebuild/WriteBack are the three recovery phases of Fig 4(a).
	Locate, Rebuild, WriteBack time.Duration
	// TotalSkip is the end-to-end time with the write-back phase bypassed
	// (Fig 4(b)).
	TotalSkip time.Duration
	// TracksScanned counts locate-phase track scans (binary search).
	TracksScanned int
	// WBWrites counts the data-disk writes issued during the write-back
	// phase, and WBQueue/WBMech/WBRotWait/WBXfer decompose their summed
	// latency (span-attributed at the standard disk driver; Mech bundles
	// seek, settle, head switch, and command overheads): replay is
	// dominated by mechanical positioning and rotational waits, which is
	// exactly why the paper's skip-write-back optimization pays.
	WBWrites                           int
	WBQueue, WBMech, WBRotWait, WBXfer time.Duration
}

// Total returns the full recovery time.
func (r Fig4Row) Total() time.Duration { return r.Locate + r.Rebuild + r.WriteBack }

// Fig4Result reproduces Figure 4.
type Fig4Result struct {
	Rows []Fig4Row
}

// Figure4 reproduces Figure 4: crash the Trail system with Q pending write
// records, recover, and report the three-phase breakdown (a) plus the
// write-back-skipped total (b), for each Q.
func Figure4(qs []int, seed uint64) (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, q := range qs {
		// One crash state, recovered twice: each recovery gets clones of
		// its drives, since recovery marks the log disk clean.
		rec := span.NewRecorder(0)
		sys, err := crashWithBacklog(q, seed, rec)
		if err != nil {
			return nil, err
		}
		full, err := recoverClones(sys, trail.RecoverOptions{Spans: rec})
		if err != nil {
			return nil, err
		}
		skip, err := recoverClones(sys, trail.RecoverOptions{SkipWriteBack: true})
		if err != nil {
			return nil, err
		}
		row := Fig4Row{
			Q:             q,
			RecordsFound:  full.RecordsFound,
			Locate:        full.LocateTime,
			Rebuild:       full.RebuildTime,
			WriteBack:     full.WriteBackTime,
			TotalSkip:     skip.Total(),
			TracksScanned: full.TracksScanned,
		}
		// Decompose the write-back phase from the data-disk spans.
		var queue, mech, rot, xfer int64
		for _, rq := range rec.Requests() {
			if rq.Driver != "std" || rq.Kind != span.KWrite {
				continue
			}
			row.WBWrites++
			queue += rq.PhaseTotal(span.PQueue) + rq.PhaseTotal(span.PRetry)
			for ph := range disk.NumPhases {
				switch t := rq.PhaseTotal(span.Mechanical(ph)); ph {
				case disk.RotWait:
					rot += t
				case disk.Transfer:
					xfer += t
				default:
					mech += t
				}
			}
		}
		row.WBQueue = time.Duration(queue)
		row.WBMech = time.Duration(mech)
		row.WBRotWait = time.Duration(rot)
		row.WBXfer = time.Duration(xfer)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// crashWithBacklog builds a Trail system, runs writes until Q records are
// outstanding and cuts power, returning the crashed rig. When rec is non-nil
// the rig carries it, so the data disks of a recovery record spans into it
// and the write-back phase can be decomposed per device command.
func crashWithBacklog(q int, seed uint64, rec *span.Recorder) (*rig.Rig, error) {
	cfg := trail.Default()
	cfg.MaxBatchSectors = 2 // one 2-sector write per record: backlog == Q records
	sys, err := rig.New(rig.Config{Trail: cfg, Instruments: rig.Instruments{Recorder: rec}})
	if err != nil {
		return nil, err
	}
	dev := sys.Dev(0)
	rng := sim.NewRand(seed + uint64(q))
	stop := false
	var loadErr error // the first write that failed; it stops the load
	sys.Go("load", func(p *sim.Proc) {
		for !stop {
			lba := rng.Int64n(dev.Sectors()/8) * 8
			if err := dev.Write(p, lba, 2, make([]byte, 2*geom.SectorSize)); err != nil {
				loadErr = err
				return
			}
		}
	})
	// Advance until the backlog reaches Q, then cut power.
	for sys.Trail.OutstandingRecords() < q {
		before := sys.Env.Now()
		sys.RunUntil(before.Add(2 * time.Millisecond))
		if loadErr != nil {
			sys.Close()
			return nil, fmt.Errorf("fig4 load q=%d: %w", q, loadErr)
		}
		if sys.Env.Now() == before {
			sys.Close()
			return nil, fmt.Errorf("fig4: backlog stalled at %d of %d", sys.Trail.OutstandingRecords(), q)
		}
	}
	stop = true
	sys.Crash()
	return sys, nil
}

// recoverClones reboots a crashed rig on clones of its drives and a fresh
// environment and recovers with opts, leaving the crash state as it was for
// the next recovery.
func recoverClones(sys *rig.Rig, opts trail.RecoverOptions) (*trail.RecoverReport, error) {
	drives := sys.Drives()
	for i, d := range drives {
		drives[i] = d.Clone()
	}
	env := sim.NewEnv()
	defer env.Close()
	_, rep, err := sys.RecoverOn(env, drives, opts)
	return rep, err
}

// String renders both panels.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: recovery time breakdown (ms)\n")
	fmt.Fprintf(&b, "%6s %8s %10s %10s %10s %10s %10s %8s %7s\n",
		"Q", "records", "locate", "rebuild", "writeback", "total", "no-wb", "tracks", "ratio")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.TotalSkip > 0 {
			ratio = float64(row.Total()) / float64(row.TotalSkip)
		}
		fmt.Fprintf(&b, "%6d %8d %10s %10s %10s %10s %10s %8d %6.1fx\n",
			row.Q, row.RecordsFound, fmtMS(row.Locate), fmtMS(row.Rebuild), fmtMS(row.WriteBack),
			fmtMS(row.Total()), fmtMS(row.TotalSkip), row.TracksScanned, ratio)
	}
	b.WriteString("(paper: locate ~450 ms binary search; write-back makes recovery ~3.5x slower at Q=256)\n")
	b.WriteString("write-back anatomy (span-attributed data-disk write time, ms)\n")
	fmt.Fprintf(&b, "%6s %8s %10s %10s %10s %10s\n",
		"Q", "writes", "queue", "mech", "rotwait", "xfer")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %8d %10s %10s %10s %10s\n",
			row.Q, row.WBWrites, fmtMS(row.WBQueue), fmtMS(row.WBMech),
			fmtMS(row.WBRotWait), fmtMS(row.WBXfer))
	}
	return b.String()
}

// Entries returns one gate entry per Q: fig4/Q=N, with the whole recovery
// time as its mean.
func (r *Fig4Result) Entries() []benchfmt.Entry {
	var out []benchfmt.Entry
	for _, row := range r.Rows {
		out = append(out, benchfmt.Entry{
			Name:   fmt.Sprintf("fig4/Q=%d", row.Q),
			MeanUS: benchfmt.US(row.Total()),
			Counters: map[string]int64{
				"records":         int64(row.RecordsFound),
				"tracks_scanned":  int64(row.TracksScanned),
				"locate_ns":       row.Locate.Nanoseconds(),
				"rebuild_ns":      row.Rebuild.Nanoseconds(),
				"writeback_ns":    row.WriteBack.Nanoseconds(),
				"no_writeback_ns": row.TotalSkip.Nanoseconds(),
				"wb_writes":       int64(row.WBWrites),
				"wb_queue_ns":     row.WBQueue.Nanoseconds(),
				"wb_mech_ns":      row.WBMech.Nanoseconds(),
				"wb_rotwait_ns":   row.WBRotWait.Nanoseconds(),
				"wb_xfer_ns":      row.WBXfer.Nanoseconds(),
			},
		})
	}
	return out
}

// Plot renders the recovery breakdown as an ASCII chart.
func (r *Fig4Result) Plot() string {
	mk := func(name string, pick func(Fig4Row) time.Duration) Series {
		s := Series{Name: name}
		for _, row := range r.Rows {
			s.Points = append(s.Points, [2]float64{float64(row.Q), pick(row).Seconds() * 1000})
		}
		return s
	}
	return AsciiPlot(
		"Figure 4: recovery time vs pending records",
		"Q (pending records)", "ms",
		[]Series{
			mk("total", Fig4Row.Total),
			mk("write-back", func(r Fig4Row) time.Duration { return r.WriteBack }),
			mk("locate", func(r Fig4Row) time.Duration { return r.Locate }),
			mk("no write-back", func(r Fig4Row) time.Duration { return r.TotalSkip }),
		}, 64, 16)
}
