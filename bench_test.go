package tracklog_test

// One benchmark per table and figure in the paper's evaluation. Each
// iteration runs the corresponding experiment on the virtual clock and
// reports the headline quantities as custom metrics (units are simulated
// milliseconds or the paper's own metric); wall-clock ns/op measures only
// how fast the simulation itself runs.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem .

import (
	"testing"

	"tracklog/internal/experiments"
	"tracklog/internal/tpcc"
)

// benchTPCC is a reduced-scale configuration that keeps each iteration in
// the seconds range while preserving every structural knob; use
// cmd/reproduce -only table2 -paper for the full w=1 runs.
func benchTPCC() experiments.TPCCConfig {
	return experiments.TPCCConfig{
		DB: tpcc.Config{
			Warehouses:               1,
			Districts:                10,
			CustomersPerDistrict:     200,
			Items:                    3000,
			InitialOrdersPerDistrict: 100,
			CachePages:               500,
			Seed:                     3,
		},
		Transactions: 300,
		Concurrency:  1,
		Warmup:       100,
		LogBufferKB:  50,
		Seed:         5,
	}
}

func BenchmarkFigure3SyncWriteLatency(b *testing.B) {
	for _, procs := range []int{1, 5} {
		b.Run(map[int]string{1: "panel-a-1proc", 5: "panel-b-5procs"}[procs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.Figure3(experiments.Figure3Config{
					Processes:        procs,
					SizesKB:          []int{1, 4, 16},
					WritesPerProcess: 60,
					Seed:             uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				r := res.Rows[0]
				b.ReportMetric(r.TrailSparse.Seconds()*1e3, "trail-1KB-sparse-ms")
				b.ReportMetric(r.LinuxClustered.Seconds()*1e3, "linux-1KB-clust-ms")
				b.ReportMetric(r.Speedup(), "speedup-1KB")
			}
		})
	}
}

func BenchmarkTable1BatchedWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(32, nil)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(first.Elapsed.Seconds()*1e3, "batch1-ms")
		b.ReportMetric(last.Elapsed.Seconds()*1e3, "batch32-ms")
		b.ReportMetric(float64(first.Elapsed)/float64(last.Elapsed), "spread-x")
	}
}

func BenchmarkTable2TPCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchTPCC())
		if err != nil {
			b.Fatal(err)
		}
		trail, ext2, gc := res.Rows[0], res.Rows[1], res.Rows[2]
		b.ReportMetric(trail.TpmC, "trail-tpmC")
		b.ReportMetric(ext2.TpmC, "ext2-tpmC")
		b.ReportMetric(gc.TpmC, "gc-tpmC")
		b.ReportMetric(trail.TpmC/ext2.TpmC, "trail-vs-ext2-x")
		b.ReportMetric(100*(1-trail.LogIOTime.Seconds()/ext2.LogIOTime.Seconds()), "logio-cut-pct")
	}
}

func BenchmarkTable3GroupCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchTPCC()
		cfg.Concurrency = 4
		res, err := experiments.Table3(cfg, []int{4, 100, 400})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].GroupCommits), "flushes-4KB")
		b.ReportMetric(float64(res.Rows[1].GroupCommits), "flushes-100KB")
		b.ReportMetric(float64(res.Rows[2].GroupCommits), "flushes-400KB")
	}
}

func BenchmarkTrackUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchTPCC()
		res, err := experiments.TrackUtilization(cfg, []int{4, 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Rows[0].OneBatchUtil, "util-conc4-pct")
		b.ReportMetric(100*res.Rows[1].OneBatchUtil, "util-conc12-pct")
	}
}

func BenchmarkFigure4Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4([]int{32, 128}, uint64(i+3))
		if err != nil {
			b.Fatal(err)
		}
		small, large := res.Rows[0], res.Rows[1]
		b.ReportMetric(small.Locate.Seconds()*1e3, "locate-ms")
		b.ReportMetric(large.Total().Seconds()*1e3, "q128-total-ms")
		b.ReportMetric(float64(large.Total())/float64(large.TotalSkip), "writeback-slowdown-x")
	}
}

func BenchmarkDeltaCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DeltaCalibration(nil, 12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BestDelta), "best-delta-sectors")
	}
}

func BenchmarkLatencyAnatomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LatencyAnatomy(25)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OneSector.Seconds()*1e3, "1sector-ms")
		b.ReportMetric(res.FourKB.Seconds()*1e3, "4KB-ms")
		b.ReportMetric(res.Reposition.Seconds()*1e3, "reposition-ms")
	}
}

func BenchmarkAblationThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ThresholdSweep([]float64{0.05, 0.30, 0.80}, 100, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].MeanLatency.Seconds()*1e3, "30pct-mean-ms")
		b.ReportMetric(100*res.Rows[1].AvgTrackUtil, "30pct-util-pct")
	}
}

func BenchmarkExtensionMultiLogDisks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiLogAblation([]int{1, 2}, 120, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeanLatency.Seconds()*1e3, "1log-ms")
		b.ReportMetric(res.Rows[1].MeanLatency.Seconds()*1e3, "2logs-ms")
	}
}

func BenchmarkExtensionFSMetadata(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FSMetadata(30, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeanAppend.Seconds()*1e3, "std-append-ms")
		b.ReportMetric(res.Rows[1].MeanAppend.Seconds()*1e3, "trail-append-ms")
	}
}

func BenchmarkExtensionRAID5SmallWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RAID5SmallWrites(60, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeanWrite.Seconds()*1e3, "std-write-ms")
		b.ReportMetric(res.Rows[1].MeanWrite.Seconds()*1e3, "trail-write-ms")
	}
}

func BenchmarkExtensionDirectLogging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.DirectLogging(40, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeanCommit.Seconds()*1e3, "direct-ms")
		b.ReportMetric(res.Rows[1].MeanCommit.Seconds()*1e3, "indirect-ms")
	}
}
