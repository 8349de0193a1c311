package experiments

import (
	"fmt"
	"strings"
	"time"

	"tracklog/internal/benchfmt"
	"tracklog/internal/disk"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/tpcc"
	"tracklog/internal/wal"
)

// StorageSystem is one column of Table 2.
type StorageSystem int

// The three systems under test.
const (
	// Ext2Trail runs Berkeley-DB-style transactions over the Trail driver
	// (every log write synchronous; Trail makes them cheap).
	Ext2Trail StorageSystem = iota + 1
	// Ext2 runs over the standard disk subsystem with a synchronous flush
	// at every commit.
	Ext2
	// Ext2GC runs over the standard disk subsystem with group commit
	// (50 KB log buffer by default).
	Ext2GC
)

func (s StorageSystem) String() string {
	switch s {
	case Ext2Trail:
		return "EXT2+Trail"
	case Ext2:
		return "EXT2"
	case Ext2GC:
		return "EXT2+GC"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// TPCCConfig sizes the §5.2 experiments. The zero value is a laptop-scale
// configuration preserving the paper's structure; PaperScale returns the
// full w=1 TPC-C sizing.
type TPCCConfig struct {
	DB           tpcc.Config
	Transactions int
	Concurrency  int
	Warmup       int
	LogBufferKB  int
	Seed         uint64
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.DB.Warehouses == 0 {
		c.DB = tpcc.Config{
			Warehouses:               1,
			Districts:                10,
			CustomersPerDistrict:     600,
			Items:                    10000,
			InitialOrdersPerDistrict: 300,
			// Smaller than the database, as the paper's 300 MB cache is
			// smaller than its >0.5 GB database: evictions of dirty pages
			// are synchronous data-disk writes, which is where Trail's
			// transparent logging pays off beyond the WAL itself.
			CachePages: 700,
			Seed:       c.Seed + 1,
		}
	}
	if c.Transactions == 0 {
		c.Transactions = 1000
	}
	if c.Concurrency == 0 {
		c.Concurrency = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 300
	}
	if c.LogBufferKB == 0 {
		c.LogBufferKB = 50
	}
	return c
}

// PaperScale returns the paper's full configuration: w=1 (10 districts,
// 3000 customers each, 100k items), 5000 measured transactions.
func PaperScale() TPCCConfig {
	return TPCCConfig{
		DB: tpcc.Config{
			Warehouses:               1,
			Districts:                10,
			CustomersPerDistrict:     3000,
			Items:                    100000,
			InitialOrdersPerDistrict: 3000,
			CachePages:               3500, // cache:database ratio ~0.3, as 300 MB : >0.5 GB
			Seed:                     2,
		},
		Transactions: 5000,
		Concurrency:  1,
		Warmup:       500,
		LogBufferKB:  50,
		Seed:         1,
	}
}

// buildTPCC assembles the paper's §5.2 hardware — one disk dedicated to the
// database log file, two disks for tables — either behind the Trail driver
// (plus its ST41601N log disk) or behind the standard subsystem, with the
// column's commit discipline.
func buildTPCC(system StorageSystem, cfg TPCCConfig) (*rig.Rig, *tpcc.Runner, error) {
	var hw rig.Config
	mode := wal.SyncEveryCommit
	switch system {
	case Ext2Trail:
	case Ext2:
		hw.Baseline = sched.LOOK
	case Ext2GC:
		hw.Baseline = sched.LOOK
		mode = wal.GroupCommit
	default:
		return nil, nil, fmt.Errorf("unknown system %v", system)
	}
	return tpcc.Deploy(hw, cfg.DB, wal.Config{Mode: mode, BufferBytes: cfg.LogBufferKB * 1024})
}

// Table2Row is one column of Table 2 (transposed into a row here).
type Table2Row struct {
	System StorageSystem
	// AvgResponse is the mean transaction response, each transaction
	// charged the checkpoint its terminal ran before it.
	AvgResponse time.Duration
	LogIOTime   time.Duration
	TpmC        float64
	Committed   int64
	Aborted     int64
}

// Table2Result reproduces Table 2.
type Table2Result struct {
	Config TPCCConfig
	Rows   []Table2Row
}

// Table2 runs the TPC-C comparison of the three storage systems (paper
// Table 2: 5000 transactions, concurrency 1, w=1, 50 KB log buffer).
func Table2(cfg TPCCConfig) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	res := &Table2Result{Config: cfg}
	for _, sys := range []StorageSystem{Ext2Trail, Ext2, Ext2GC} {
		r, err := table2Column(sys, cfg)
		if err != nil {
			return nil, fmt.Errorf("table2 %v: %w", sys, err)
		}
		res.Rows = append(res.Rows, Table2Row{
			System:      sys,
			AvgResponse: (r.Response.Sum() + r.CheckpointTime) / time.Duration(max(r.Response.Count(), 1)),
			LogIOTime:   r.LogIOTime,
			TpmC:        r.TpmC(),
			Committed:   r.Committed,
			Aborted:     r.Aborted,
		})
	}
	return res, nil
}

// table2Column runs the TPC-C workload of one Table 2 column. A sync-commit
// column at concurrency 1 fails unless it obeys the first law of ROADMAP
// item 29: its one terminal is never idle, so the measured responses and the
// checkpoints run before them sum to the measured phase, within 0.1 %.
func table2Column(sys StorageSystem, cfg TPCCConfig) (*tpcc.Result, error) {
	hw, runner, err := buildTPCC(sys, cfg)
	if err != nil {
		return nil, err
	}
	defer hw.Close()
	r, err := runner.Run(hw.Env, tpcc.RunConfig{
		Transactions: cfg.Transactions,
		Concurrency:  cfg.Concurrency,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	busy := r.Response.Sum() + r.CheckpointTime
	if sys != Ext2GC && cfg.Concurrency == 1 && (busy-r.Elapsed).Abs()*1000 > r.Elapsed {
		return nil, fmt.Errorf("responses %v + checkpoints %v = %v do not tile elapsed %v",
			r.Response.Sum(), r.CheckpointTime, busy, r.Elapsed)
	}
	return r, nil
}

// String renders Table 2.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: TPC-C, %d txns, concurrency %d, w=%d, %d KB log buffer\n",
		r.Config.Transactions, r.Config.Concurrency, r.Config.DB.Warehouses, r.Config.LogBufferKB)
	fmt.Fprintf(&b, "%-12s %14s %16s %10s %10s %8s\n", "system", "avg resp (s)", "log I/O (s)", "tpmC", "committed", "aborted")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %14.3f %16.1f %10.0f %10d %8d\n",
			row.System, row.AvgResponse.Seconds(), row.LogIOTime.Seconds(), row.TpmC, row.Committed, row.Aborted)
	}
	if len(r.Rows) == 3 {
		fmt.Fprintf(&b, "Trail/EXT2 throughput: %.2fx (paper 1.63x);  Trail/GC: %.2fx (paper 1.51x);  log I/O cut vs EXT2: %.0f%% (paper 42%%)\n",
			r.Rows[0].TpmC/r.Rows[1].TpmC, r.Rows[0].TpmC/r.Rows[2].TpmC,
			100*(1-r.Rows[0].LogIOTime.Seconds()/r.Rows[1].LogIOTime.Seconds()))
	}
	return b.String()
}

// Entries returns one gate entry per system: table2/trail, table2/ext2 and
// table2/ext2-gc, each with its mean response time.
func (r *Table2Result) Entries() []benchfmt.Entry {
	slug := map[StorageSystem]string{Ext2Trail: "trail", Ext2: "ext2", Ext2GC: "ext2-gc"}
	var out []benchfmt.Entry
	for _, row := range r.Rows {
		out = append(out, benchfmt.Entry{
			Name:   "table2/" + slug[row.System],
			Count:  row.Committed,
			MeanUS: benchfmt.US(row.AvgResponse),
			Rates:  map[string]float64{"tpmC": row.TpmC},
			Counters: map[string]int64{
				"log_io_ns": row.LogIOTime.Nanoseconds(),
				"committed": row.Committed,
				"aborted":   row.Aborted,
			},
		})
	}
	return out
}

// Table3Row is one log-buffer-size point of Table 3.
type Table3Row struct {
	LogBufferKB  int
	GroupCommits int64
	LogBytes     int64
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Config TPCCConfig
	Rows   []Table3Row
}

// Table3 counts group commits (synchronous log writes) in a fixed TPC-C run
// as the log buffer size varies (paper: 10000 txns, concurrency 4, buffers
// 4..1200 KB, counts 10960 down to 39).
func Table3(cfg TPCCConfig, bufferKBs []int) (*Table3Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Concurrency < 2 {
		cfg.Concurrency = 4
	}
	if len(bufferKBs) == 0 {
		bufferKBs = []int{4, 100, 400, 800, 1200}
	}
	res := &Table3Result{Config: cfg}
	for _, kb := range bufferKBs {
		c := cfg
		c.LogBufferKB = kb
		hw, runner, err := buildTPCC(Ext2GC, c)
		if err != nil {
			return nil, fmt.Errorf("table3 %dKB: %w", kb, err)
		}
		r, err := runner.Run(hw.Env, tpcc.RunConfig{
			Transactions: c.Transactions,
			Concurrency:  c.Concurrency,
			Warmup:       c.Warmup,
			Seed:         c.Seed + 13,
		})
		hw.Close()
		if err != nil {
			return nil, fmt.Errorf("table3 %dKB: %w", kb, err)
		}
		res.Rows = append(res.Rows, Table3Row{LogBufferKB: kb, GroupCommits: r.LogFlushes, LogBytes: r.LogBytes})
	}
	return res, nil
}

// String renders Table 3.
func (r *Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: group commits in a %d-txn run, concurrency %d\n",
		r.Config.Transactions, max(r.Config.Concurrency, 4))
	fmt.Fprintf(&b, "%14s %16s %14s\n", "buffer KB", "group commits", "log KB total")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%14d %16d %14d\n", row.LogBufferKB, row.GroupCommits, row.LogBytes/1024)
	}
	b.WriteString("(paper at 10000 txns: 10960 / 448 / 113 / 57 / 39)\n")
	return b.String()
}

// Entries returns one gate entry per buffer size: table3/buffer=NKB.
func (r *Table3Result) Entries() []benchfmt.Entry {
	var out []benchfmt.Entry
	for _, row := range r.Rows {
		out = append(out, benchfmt.Entry{
			Name:     fmt.Sprintf("table3/buffer=%dKB", row.LogBufferKB),
			Counters: map[string]int64{"group_commits": row.GroupCommits, "log_bytes": row.LogBytes},
		})
	}
	return out
}

// UtilizationRow is one concurrency point of the §5.2 track-utilization
// analysis.
type UtilizationRow struct {
	Concurrency int
	// OneBatchUtil is per-track utilization under the paper's stated
	// assumption ("Assume Trail performs exactly one batched write to each
	// track"): the average record footprint over the average track size.
	OneBatchUtil float64
	// MeasuredUtil is the utilization the driver actually achieves with
	// its 30% threshold packing multiple records per track.
	MeasuredUtil float64
	Records      int64
	TracksUsed   int64
}

// UtilizationResult reproduces the §5.2 utilization numbers.
type UtilizationResult struct {
	Rows []UtilizationRow
}

// TrackUtilization measures Trail's per-track log disk space utilization
// under TPC-C at varying concurrency (paper: 12% at 4, 21% at 8, >30% at
// 12 — batched writes grow with burstiness).
func TrackUtilization(cfg TPCCConfig, concurrencies []int) (*UtilizationResult, error) {
	cfg = cfg.withDefaults()
	if len(concurrencies) == 0 {
		concurrencies = []int{4, 8, 12}
	}
	res := &UtilizationResult{}
	for _, conc := range concurrencies {
		c := cfg
		c.Concurrency = conc
		// Burstiness at the log disk is the object of study: the paper's
		// cache-pressured configuration stalls groups of transactions on
		// data-disk I/O, whose commits then arrive at the log in bursts
		// ("the disk I/Os occur in bursts since the CPU time each
		// transaction requires is much smaller than the disk I/O delay").
		hw, runner, err := buildTPCC(Ext2Trail, c)
		if err != nil {
			return nil, fmt.Errorf("utilization conc=%d: %w", conc, err)
		}
		_, err = runner.Run(hw.Env, tpcc.RunConfig{
			Transactions: c.Transactions,
			Concurrency:  conc,
			Warmup:       c.Warmup,
			Seed:         c.Seed + 17,
		})
		if err != nil {
			hw.Close()
			return nil, fmt.Errorf("utilization conc=%d: %w", conc, err)
		}
		s := hw.Trail.Stats()
		g := disk.ST41601N().Geom
		avgSPT := float64(g.TotalSectors()) / float64(g.TotalTracks())
		oneBatch := 0.0
		if s.Records > 0 {
			oneBatch = (float64(s.LoggedSectors+s.Records) / float64(s.Records)) / avgSPT
		}
		hw.Close()
		res.Rows = append(res.Rows, UtilizationRow{
			Concurrency:  conc,
			OneBatchUtil: oneBatch,
			MeasuredUtil: s.AvgTrackUtilization(),
			Records:      s.Records,
			TracksUsed:   s.TrackUtilTracks,
		})
	}
	return res, nil
}

// String renders the utilization sweep.
func (r *UtilizationResult) String() string {
	var b strings.Builder
	b.WriteString("Section 5.2: per-track log disk utilization vs concurrency\n")
	fmt.Fprintf(&b, "%12s %14s %14s %10s %8s\n", "concurrency", "one-batch util", "measured util", "records", "tracks")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%12d %13.1f%% %13.1f%% %10d %8d\n",
			row.Concurrency, 100*row.OneBatchUtil, 100*row.MeasuredUtil, row.Records, row.TracksUsed)
	}
	b.WriteString("(paper: 12% at 4, 21% at 8, >30% at 12)\n")
	return b.String()
}

// Entries returns one gate entry per concurrency: util/conc=N.
func (r *UtilizationResult) Entries() []benchfmt.Entry {
	var out []benchfmt.Entry
	for _, row := range r.Rows {
		out = append(out, benchfmt.Entry{
			Name:     fmt.Sprintf("util/conc=%d", row.Concurrency),
			Rates:    map[string]float64{"one_batch_util": row.OneBatchUtil, "measured_util": row.MeasuredUtil},
			Counters: map[string]int64{"records": row.Records, "tracks": row.TracksUsed},
		})
	}
	return out
}
