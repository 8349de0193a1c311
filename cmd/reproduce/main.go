// Command reproduce regenerates the paper's evaluation — every table,
// figure, ablation and extension in internal/experiments.Catalogue, then the
// gate sections — and writes a self-contained markdown report to stdout. It
// is the only runner of the catalogue: one section, a family of sections, or
// the whole paper.
//
// Usage:
//
//	reproduce [-only KEYS] [-quick|-paper] [-seed N] [-json FILE] > report.md
//
// -only takes comma-separated section keys or key prefixes (fig3, table2,
// ablate, ext-raid5, ...); without it everything runs. The default sizes are
// the ones EXPERIMENTS.md's numbers come from; -quick shrinks every workload
// for a fast smoke run and -paper runs TPC-C at the paper's full w=1 scale
// (much slower). Every number is simulated (virtual-clock) time, so the
// report is byte-identical for a given seed and sizing.
//
// -json also writes the selected sections' rows as one benchfmt file, in
// catalogue order: the paper's tables (table2, table3, util, fig4) and the
// gate sections, whose sizes and seed are fixed. BENCH_trail.json is
// `reproduce -quick -json BENCH_trail.json`, and rundiff gates a run against it.
//
// Exit status: 0 when every selected section ran, 1 when any failed (the
// remaining sections still run, and -json writes nothing), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tracklog/internal/benchfmt"
	"tracklog/internal/experiments"
	"tracklog/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, experiments.Select))
}

// run is main with the catalogue lookup injected, so tests can substitute a
// failing section.
func run(args []string, stdout, stderr io.Writer, sel func(only string) ([]experiments.Section, error)) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated section keys or key prefixes (default: every section)")
	quick := fs.Bool("quick", false, "shrink workloads for a fast smoke run")
	paper := fs.Bool("paper", false, "run TPC-C at the paper's full w=1 scale (slow)")
	seed := fs.Uint64("seed", 1, "random seed")
	jsonOut := fs.String("json", "", "also write the sections' rows to this benchfmt file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := experiments.DefaultSizing()
	switch {
	case *quick && *paper:
		fmt.Fprintln(stderr, "reproduce: -quick and -paper are mutually exclusive")
		return 2
	case *quick:
		sz = experiments.QuickSizing()
	case *paper:
		sz = experiments.PaperSizing()
	}
	sections, err := sel(*only)
	if err != nil {
		fmt.Fprintln(stderr, "reproduce:", err)
		return 2
	}

	fmt.Fprintln(stdout, "# Track-Based Disk Logging — reproduction report")
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "Seed %d. Every number below is simulated (virtual-clock) time;\n", *seed)
	fmt.Fprintln(stdout, "see EXPERIMENTS.md for the paper-vs-measured discussion.")
	fmt.Fprintln(stdout)

	// The sections share nothing, so they run at once; each is printed, in
	// catalogue order, once all have run.
	type outcome struct {
		text    string
		entries []benchfmt.Entry
		err     error
	}
	outcomes := sim.Parallel(len(sections), func(i int) outcome {
		text, entries, err := sections[i].Run(sz, *seed)
		return outcome{text, entries, err}
	})
	failed := 0
	bf := &benchfmt.File{Seed: *seed, Experiments: []benchfmt.Entry{}}
	for i, s := range sections {
		o := outcomes[i]
		fmt.Fprintf(stdout, "## %s\n\n```\n", s.Title)
		if o.err != nil {
			failed++
			o.text = fmt.Sprintf("ERROR: %v", o.err)
			fmt.Fprintf(stderr, "reproduce: %s: %v\n", s.Key, o.err)
		}
		bf.Experiments = append(bf.Experiments, o.entries...)
		fmt.Fprintln(stdout, o.text)
		fmt.Fprint(stdout, "```\n\n")
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "reproduce: %d of %d sections failed\n", failed, len(sections))
		return 1
	}
	if *jsonOut != "" {
		if err := bf.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(stderr, "reproduce:", err)
			return 1
		}
	}
	return 0
}
