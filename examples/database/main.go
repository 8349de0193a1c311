// Database example: run TPC-C-style transactions over the Trail subsystem
// and over the standard baseline, comparing commit latency and throughput —
// a miniature of the paper's Table 2.
//
//	go run ./examples/database
package main

import (
	"fmt"
	"log"

	"tracklog"
	"tracklog/internal/sched"
	"tracklog/internal/tpcc"
	"tracklog/internal/wal"
)

// dbConfig is a small TPC-C database that loads in a moment.
func dbConfig() tpcc.Config {
	return tpcc.Config{
		Warehouses:               1,
		Districts:                5,
		CustomersPerDistrict:     200,
		Items:                    2000,
		InitialOrdersPerDistrict: 100,
		CachePages:               1500,
		Seed:                     11,
	}
}

func main() {
	for _, useTrail := range []bool{true, false} {
		name := "standard"
		if useTrail {
			name = "trail"
		}
		res, err := runSystem(useTrail)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-8s  committed=%d  tpmC=%.0f  avg response=%v  log I/O=%v (%d flushes)\n",
			name, res.Committed, res.TpmC(), res.Response.Mean().Round(0), res.LogIOTime, res.LogFlushes)
	}
}

// runSystem deploys the database on three IDE disks — one for the database
// log file, two for tables, populated through instant devices before the
// system starts (setup work, not measured) — behind Trail or behind the
// standard elevator, and runs the transaction mix.
func runSystem(useTrail bool) (*tpcc.Result, error) {
	var hw tracklog.SystemConfig
	if !useTrail {
		hw.Baseline = sched.LOOK
	}
	sys, runner, err := tpcc.Deploy(hw, dbConfig(), wal.Config{})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	return runner.Run(sys.Env, tpcc.RunConfig{Transactions: 300, Concurrency: 2, Warmup: 50, Seed: 21})
}
