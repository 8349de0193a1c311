package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/trail"
	"tracklog/internal/workload"
)

// Table1Row is one batch-size point of Table 1: total elapsed time to
// service a fixed sequence of one-sector synchronous writes.
type Table1Row struct {
	BatchSize int
	Elapsed   time.Duration
	Records   int64 // physical log writes actually issued
}

// Table1Result reproduces Table 1.
type Table1Result struct {
	Writes int
	Rows   []Table1Row
}

// Table1 reproduces Table 1: the total elapsed time for servicing a
// sequence of 32 one-sector synchronous writes as the write batch size
// varies over 1..32 (the paper's points; it reports a ~15x spread).
//
// All writes are queued at time zero; the driver's MaxBatchSectors caps how
// many are aggregated per physical log write, exactly the knob the paper
// sweeps.
func Table1() (*Table1Result, error) {
	const writes = 32
	res := &Table1Result{Writes: writes}
	for _, bs := range []int{1, 2, 4, 8, 16, 32} {
		cfg := trail.Default()
		cfg.MaxBatchSectors = bs
		sys, err := rig.New(rig.Config{Trail: cfg})
		if err != nil {
			return nil, err
		}
		// Warm the driver (establish the prediction reference point) so the
		// measurement starts from steady state, as the paper's does; then
		// queue every write at once, one stream each.
		oneSector := func(name string, lba int64) workload.Stream {
			return workload.Stream{Name: name, Ops: []workload.TraceOp{{Write: true, LBA: lba, Sectors: 1}}}
		}
		warm := workload.Load{Streams: []workload.Stream{oneSector("warmup", 1<<20)}}
		load := workload.Load{Streams: make([]workload.Stream, writes)}
		for i := range load.Streams {
			load.Streams[i] = oneSector(fmt.Sprintf("w%d", i), int64(i*64))
		}
		_, err = workload.Run(sys.Env, sys.Dev(0), warm)
		warmRecords := sys.Trail.Stats().Records
		var run *workload.Result
		if err == nil {
			run, err = workload.Run(sys.Env, sys.Dev(0), load)
		}
		records := sys.Trail.Stats().Records - warmRecords
		sys.Env.Close()
		if err != nil {
			return nil, fmt.Errorf("table1 batch %d: %w", bs, err)
		}
		res.Rows = append(res.Rows, Table1Row{
			BatchSize: bs,
			Elapsed:   run.Elapsed,
			Records:   records,
		})
	}
	return res, nil
}

// String renders the table.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: elapsed time for %d one-sector writes vs batch size\n", r.Writes)
	fmt.Fprintf(&b, "%10s %14s %9s\n", "batch", "elapsed ms", "records")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %14s %9d\n", row.BatchSize, fmtMS(row.Elapsed), row.Records)
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	fmt.Fprintf(&b, "spread (batch %d vs %d): %.1fx (paper: ~15x)\n",
		first.BatchSize, last.BatchSize, float64(first.Elapsed)/float64(last.Elapsed))
	return b.String()
}
