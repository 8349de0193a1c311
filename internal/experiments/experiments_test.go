package experiments

import (
	"strings"
	"testing"
	"time"

	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/span"
	"tracklog/internal/telemetry"
	"tracklog/internal/timeline"
	"tracklog/internal/tpcc"
	"tracklog/internal/trace"
	"tracklog/internal/workload"
)

// smallTPCC returns a fast configuration preserving the experiments'
// structure.
func smallTPCC() TPCCConfig {
	return TPCCConfig{
		DB: tpcc.Config{
			Warehouses:               1,
			Districts:                4,
			CustomersPerDistrict:     60,
			Items:                    300,
			InitialOrdersPerDistrict: 30,
			CachePages:               4000,
			Seed:                     3,
		},
		Transactions: 120,
		Concurrency:  1,
		Warmup:       10,
		LogBufferKB:  50,
		Seed:         5,
	}
}

func TestFigure3Shape(t *testing.T) {
	res, err := Figure3(Figure3Config{Processes: 1, SizesKB: []int{1, 8}, WritesPerProcess: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r1 := res.Rows[0]
	// Trail must beat the baseline by a wide margin at 1 KB.
	if r1.Speedup() < 3 {
		t.Errorf("1KB speedup = %.2f, want >= 3", r1.Speedup())
	}
	// Clustered Trail >= sparse Trail (track switches visible).
	if r1.TrailClustered < r1.TrailSparse {
		t.Errorf("clustered %v < sparse %v", r1.TrailClustered, r1.TrailSparse)
	}
	// The advantage shrinks as size grows (transfer dominates).
	if res.Rows[1].Speedup() >= r1.Speedup() {
		t.Errorf("speedup grew with size: %.2f -> %.2f", r1.Speedup(), res.Rows[1].Speedup())
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Error("missing render")
	}
}

func TestFigure3FiveProcesses(t *testing.T) {
	res, err := Figure3(Figure3Config{Processes: 5, SizesKB: []int{1}, WritesPerProcess: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Speedup() < 3 {
		t.Errorf("5-process speedup = %.2f", res.Rows[0].Speedup())
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(32, []int{1, 4, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Elapsed time must fall monotonically with batch size, with a large
	// overall spread (paper: ~15x).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Elapsed >= res.Rows[i-1].Elapsed {
			t.Errorf("elapsed did not fall: %v", res.Rows)
		}
	}
	spread := float64(res.Rows[0].Elapsed) / float64(res.Rows[2].Elapsed)
	if spread < 5 {
		t.Errorf("batch 1 vs 32 spread = %.1fx, want > 5x", spread)
	}
	// Record counts track the batching.
	if res.Rows[0].Records != 32 || res.Rows[2].Records > 4 {
		t.Errorf("records: %v", res.Rows)
	}
}

func TestDeltaCalibrationFindsCliff(t *testing.T) {
	res, err := DeltaCalibration([]int{2, 10, 14, 20}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0].FullRotation {
		t.Error("delta=2 did not pay a full rotation")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.FullRotation {
		t.Error("large delta still pays a full rotation")
	}
	if res.BestDelta == 0 || res.BestDelta > 20 {
		t.Errorf("best delta = %d, want <= 20 (paper <15)", res.BestDelta)
	}
}

func TestLatencyAnatomy(t *testing.T) {
	res, err := LatencyAnatomy(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneSector < time.Millisecond || res.OneSector > 2*time.Millisecond {
		t.Errorf("one-sector write = %v, want ~1.4ms", res.OneSector)
	}
	if res.FourKB <= res.OneSector {
		t.Error("4KB write not slower than 1-sector write")
	}
	if res.Reposition < time.Millisecond || res.Reposition > 3*time.Millisecond {
		t.Errorf("reposition = %v, want ~1.5ms", res.Reposition)
	}
	if res.SectorTransfer < 100*time.Microsecond || res.SectorTransfer > 200*time.Microsecond {
		t.Errorf("sector transfer = %v, want ~0.13ms", res.SectorTransfer)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(smallTPCC())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	trail, ext2, gc := res.Rows[0], res.Rows[1], res.Rows[2]
	if trail.TpmC <= ext2.TpmC {
		t.Errorf("Trail tpmC %.0f <= EXT2 %.0f", trail.TpmC, ext2.TpmC)
	}
	if trail.LogIOTime >= ext2.LogIOTime {
		t.Errorf("Trail log I/O %v >= EXT2 %v", trail.LogIOTime, ext2.LogIOTime)
	}
	if gc.LogIOTime >= ext2.LogIOTime {
		t.Errorf("GC log I/O %v >= EXT2 %v (batching inactive)", gc.LogIOTime, ext2.LogIOTime)
	}
	if trail.AvgResponse >= ext2.AvgResponse {
		t.Errorf("Trail response %v >= EXT2 %v", trail.AvgResponse, ext2.AvgResponse)
	}
}

// At concurrency 1 under SyncEveryCommit the one terminal is never idle, so
// its measured transactions' responses and the checkpoints it ran before
// them tile the measured phase: their sum is Elapsed (the first law of
// ROADMAP item 29). Table 2's average response charges each transaction
// that share, and Trail then answers faster than EXT2 at every seed.
func TestTable2ResponsesTileElapsed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := QuickSizing().tpcc(seed).withDefaults()
		var avg [2]time.Duration
		for i, sys := range []StorageSystem{Ext2Trail, Ext2} {
			r, err := table2Column(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			busy := r.Response.Sum() + r.CheckpointTime
			if off := (busy - r.Elapsed).Abs(); off*1000 > r.Elapsed {
				t.Errorf("seed %d %v: responses %v + checkpoints %v = %v, elapsed %v",
					seed, sys, r.Response.Sum(), r.CheckpointTime, busy, r.Elapsed)
			}
			avg[i] = busy / time.Duration(r.Response.Count())
		}
		if avg[0] >= avg[1] {
			t.Errorf("seed %d: Trail response %v >= EXT2 %v", seed, avg[0], avg[1])
		}
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := smallTPCC()
	cfg.Transactions = 150
	res, err := Table3(cfg, []int{4, 40, 160})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].GroupCommits >= res.Rows[i-1].GroupCommits {
			t.Errorf("group commits did not fall with buffer size: %+v", res.Rows)
		}
	}
	// 4 KB buffers with multi-KB transactions: more flushes than the
	// largest buffer by a wide factor.
	if res.Rows[0].GroupCommits < 4*res.Rows[len(res.Rows)-1].GroupCommits {
		t.Errorf("flush spread too small: %+v", res.Rows)
	}
}

func TestTrackUtilizationBounds(t *testing.T) {
	cfg := smallTPCC()
	cfg.Transactions = 150
	res, err := TrackUtilization(cfg, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.OneBatchUtil <= 0 || row.OneBatchUtil > 1 {
			t.Errorf("conc %d one-batch utilization out of range: %v", row.Concurrency, row.OneBatchUtil)
		}
		if row.MeasuredUtil < 0.25 || row.MeasuredUtil > 0.6 {
			t.Errorf("conc %d measured utilization %v far from the 30%% threshold regime", row.Concurrency, row.MeasuredUtil)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := Figure4([]int{16, 48}, 9)
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Rows[0], res.Rows[1]
	if large.Rebuild <= small.Rebuild {
		t.Errorf("rebuild time did not grow with Q: %v vs %v", small.Rebuild, large.Rebuild)
	}
	if large.WriteBack <= small.WriteBack {
		t.Errorf("write-back time did not grow with Q")
	}
	// Write-back dominates: skipping it must be much faster at large Q.
	if large.Total() < large.TotalSkip*2 {
		t.Errorf("full %v vs skip %v: write-back not dominant", large.Total(), large.TotalSkip)
	}
	// Binary search scans a logarithmic number of tracks (35714 usable).
	if small.TracksScanned > 40 {
		t.Errorf("scanned %d tracks; binary search inactive", small.TracksScanned)
	}
}

// An observed run must report exactly the same client-visible latency and
// elapsed time as a bare run of the same seed: instruments only observe.
// Trail is run bare, with a tracer handed to the env and the driver, and
// with all four instruments attached through rig.Config.Instruments; the
// baseline bare and with all four.
func TestTracingDoesNotPerturbWorkload(t *testing.T) {
	run := func(cfg rig.Config, traced bool) (elapsed, mean int64) {
		sys, err := rig.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Env.Close()
		if traced {
			tr := trace.New(0)
			sys.Env.SetTracer(tr)
			sys.Trail.SetTracer(tr)
		}
		load, err := workload.SyncWrites(workload.SyncWriteConfig{
			Mode:             workload.Sparse,
			WriteSize:        2048,
			Processes:        2,
			WritesPerProcess: 25,
			Seed:             7,
		}, sys.Dev(0).Sectors())
		if err != nil {
			t.Fatal(err)
		}
		res, err := workload.Run(sys.Env, sys.Dev(0), load)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Elapsed), int64(res.Writes.Mean())
	}
	observed := func(cfg rig.Config) rig.Config {
		cfg.Instruments = rig.Instruments{
			Tracer:   trace.New(0),
			Recorder: span.NewRecorder(0),
			Timeline: timeline.New(5 * time.Millisecond),
			Registry: telemetry.NewRegistry(),
		}
		return cfg
	}
	trail, std := rig.Config{}, rig.Config{Baseline: sched.LOOK}
	e0, m0 := run(trail, false)
	if e, m := run(trail, true); e != e0 || m != m0 {
		t.Errorf("traced trail run diverged: elapsed %d vs %d, mean %d vs %d", e, e0, m, m0)
	}
	if e, m := run(observed(trail), false); e != e0 || m != m0 {
		t.Errorf("observed trail run diverged: elapsed %d vs %d, mean %d vs %d", e, e0, m, m0)
	}
	e0, m0 = run(std, false)
	if e, m := run(observed(std), false); e != e0 || m != m0 {
		t.Errorf("observed baseline run diverged: elapsed %d vs %d, mean %d vs %d", e, e0, m, m0)
	}
}
