package experiments

import (
	"fmt"
	"strings"

	"tracklog/internal/benchfmt"
)

// Sizing is one named scale at which the whole evaluation runs. Sections
// derive their own counts from it the same way at every scale, so the three
// sizings differ only in these fields.
type Sizing struct {
	// Writes is the writes per measurement point of the raw-disk sections.
	Writes int
	// TPCC is the database scale of Tables 2 and 3 and the track-utilization
	// analysis; its Seed field is overwritten with the run's seed.
	TPCC TPCCConfig
	// RecoveryQs are Figure 4's pending-record counts.
	RecoveryQs []int
	// AblateRecoveryQ is the pending-record count of the recovery-
	// optimizations ablation.
	AblateRecoveryQ int
}

// DefaultSizing is the scale EXPERIMENTS.md's numbers come from.
func DefaultSizing() Sizing {
	return Sizing{Writes: 200, RecoveryQs: []int{32, 64, 128, 256}, AblateRecoveryQ: 64}
}

// QuickSizing shrinks every workload for a fast smoke run.
func QuickSizing() Sizing {
	return Sizing{Writes: 60, TPCC: TPCCConfig{Transactions: 200}, RecoveryQs: []int{16, 48}, AblateRecoveryQ: 24}
}

// PaperSizing is DefaultSizing with the paper's full w=1 TPC-C database
// (much slower).
func PaperSizing() Sizing {
	sz := DefaultSizing()
	sz.TPCC = PaperScale()
	return sz
}

func (sz Sizing) tpcc(seed uint64) TPCCConfig {
	cfg := sz.TPCC
	cfg.Seed = seed
	return cfg
}

// Section is one entry of the paper's evaluation: a stable key for
// selection, the report heading, and the experiment at a given sizing and
// seed. Run returns the result text exactly as it is printed and the
// section's rows of the gate file (nil for a section that has none yet).
type Section struct {
	Key   string
	Title string
	Run   func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error)
}

// text adapts an experiment's (result, error) pair to Section.Run.
func text[T fmt.Stringer](res T, err error) (string, []benchfmt.Entry, error) {
	if err != nil {
		return "", nil, err
	}
	return res.String(), nil, nil
}

// rows is text for a result that is also rows of the gate file.
func rows[T interface {
	fmt.Stringer
	Entries() []benchfmt.Entry
}](res T, err error) (string, []benchfmt.Entry, error) {
	if err != nil {
		return "", nil, err
	}
	return res.String(), res.Entries(), nil
}

func figure3(procs int) func(Sizing, uint64) (string, []benchfmt.Entry, error) {
	return func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		res, err := Figure3(Figure3Config{Processes: procs, WritesPerProcess: sz.Writes, Seed: seed})
		if err != nil {
			return "", nil, err
		}
		return res.String() + "\n" + res.Plot(), nil, nil
	}
}

// Catalogue is the paper's evaluation in report order, then the gate
// sections (gate.go): the one enumeration of what is run and at what size.
// cmd/reproduce is its only runner.
var Catalogue = []Section{
	{"delta", "Section 3.1 — delta calibration", func(sz Sizing, _ uint64) (string, []benchfmt.Entry, error) {
		return text(DeltaCalibration(nil, sz.Writes/10+5))
	}},
	{"anatomy", "Section 5.1 — latency anatomy", func(sz Sizing, _ uint64) (string, []benchfmt.Entry, error) {
		return text(LatencyAnatomy(sz.Writes / 4))
	}},
	{"fig3a", "Figure 3(a) — sync write latency, 1 process", figure3(1)},
	{"fig3b", "Figure 3(b) — sync write latency, 5 processes", figure3(5)},
	{"table1", "Table 1 — batched writes", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return text(Table1(32, nil))
	}},
	{"table2", "Table 2 — TPC-C on three storage systems", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return rows(Table2(sz.tpcc(seed)))
	}},
	{"table3", "Table 3 — group commits vs log buffer size", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return rows(Table3(sz.tpcc(seed), nil))
	}},
	{"util", "Section 5.2 — track utilization", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return rows(TrackUtilization(sz.tpcc(seed), nil))
	}},
	{"fig4", "Figure 4 — crash recovery", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		res, err := Figure4(sz.RecoveryQs, seed)
		if err != nil {
			return "", nil, err
		}
		return res.String() + "\n" + res.Plot(), res.Entries(), nil
	}},
	{"ablate-threshold", "Ablation — track utilization threshold", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(ThresholdSweep(nil, sz.Writes, seed))
	}},
	{"ablate-readprio", "Ablation — read priority", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(ReadPriorityAblation(sz.Writes/2, seed))
	}},
	{"ablate-recovery", "Ablation — recovery optimizations", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(RecoveryOptimizationsAblation(sz.AblateRecoveryQ, seed))
	}},
	{"ext-multilog", "Extension — multiple log disks", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(MultiLogAblation(nil, sz.Writes, seed))
	}},
	{"ext-fsmeta", "Extension — O_SYNC file metadata", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(FSMetadata(sz.Writes/4, seed))
	}},
	{"ext-raid5", "Extension — RAID-5 small writes", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(RAID5SmallWrites(sz.Writes/2, seed))
	}},
	{"ext-directlog", "Extension — direct vs file-system database logging", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(DirectLogging(sz.Writes/2, seed))
	}},
	{"ext-faulttol", "Extension — fault tolerance", func(sz Sizing, seed uint64) (string, []benchfmt.Entry, error) {
		return text(FaultTolerance(sz.Writes, seed))
	}},
	{"sync-write", "Gate — sync-write grid", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return entryTable(syncWriteGrid())
	}},
	{"overload", "Gate — overload", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return entryTable(overloadGate())
	}},
	{"crash-explore", "Gate — crash exploration", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return entryTable(exploreGate())
	}},
	{"simbench", "Gate — simulation kernel cost per stack world", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return entryTable(worldGate())
	}},
	{"cluster", "Gate — cluster scale-out", func(Sizing, uint64) (string, []benchfmt.Entry, error) {
		return rows(Cluster([]int{2, 4, 8}, clusterRequests, gateSeed))
	}},
}

// Select returns the catalogue sections named by only, a comma-separated
// list of keys or key prefixes ("fig3" selects both panels, "ablate" all
// three ablations), in catalogue order. An empty list selects everything; a
// term matching no key is an error.
func Select(only string) ([]Section, error) {
	if strings.TrimSpace(only) == "" {
		return Catalogue, nil
	}
	picked := make([]bool, len(Catalogue))
	for _, term := range strings.Split(only, ",") {
		term = strings.TrimSpace(term)
		matched := false
		for i, s := range Catalogue {
			if term != "" && strings.HasPrefix(s.Key, term) {
				picked[i], matched = true, true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown section %q (keys: %s)", term, strings.Join(Keys(), " "))
		}
	}
	var out []Section
	for i, s := range Catalogue {
		if picked[i] {
			out = append(out, s)
		}
	}
	return out, nil
}

// Keys lists the catalogue keys in report order.
func Keys() []string {
	keys := make([]string, len(Catalogue))
	for i, s := range Catalogue {
		keys[i] = s.Key
	}
	return keys
}
