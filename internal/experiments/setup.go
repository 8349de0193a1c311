// Package experiments reproduces every table and figure of the paper's
// evaluation (§5): synchronous write latency (Figure 3), batched writes
// (Table 1), TPC-C transaction processing (Tables 2 and 3, the §5.2
// track-utilization numbers), crash recovery (Figure 4), and the §3.1 delta
// calibration. Each experiment builds the paper's hardware configuration —
// an ST41601N log disk and WD Caviar data disks on a fresh virtual-time
// environment — runs the workload, and returns typed rows that render as
// the paper's tables.
package experiments

import "fmt"

// fmtMS renders a duration in milliseconds with two decimals.
func fmtMS(d interface{ Seconds() float64 }) string {
	return fmt.Sprintf("%.2f", d.Seconds()*1000)
}
