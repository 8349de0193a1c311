// Command crashexplore exhaustively explores crash points in a simulated
// storage stack. It runs the seeded workload once and pauses it at every
// interesting event in a window — each write acknowledgement, each media
// sector write, each write-back flight boundary, each commit — where it cuts
// power on a clone of the drives, runs the stack's recovery on the clone, and
// audits the durability contract: every acknowledged write survives, untorn.
//
// Usage:
//
//	crashexplore -stack trail|stddisk|raid5|wal [-seed N] [-skip N] [-window N]
//	             [-horizon DUR] [-kinds ack,media-write,...]
//	             [-faults SCENARIO] [-fault-seed N] [-json]
//
// -window 0 scans every probe index from -skip to the horizon; -horizon 0
// selects crashexplore.DefaultHorizon. A negative -skip, -window or
// -horizon is a usage error.
//
// The exit status is 1 if any branch loses or tears an acknowledged write —
// the first failing event index in the summary is the minimal counterexample
// for bisection — and 2 on a usage or set-up error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stackName := fs.String("stack", "trail", "stack under test: trail, stddisk, raid5, or wal")
	seed := fs.Uint64("seed", 1, "workload seed")
	skip := fs.Int64("skip", 0, "first probe index to explore")
	window := fs.Int64("window", 100, "number of probe indices to scan from -skip (0 = every index to the horizon)")
	horizon := fs.Duration("horizon", crashexplore.DefaultHorizon, "virtual-time budget of the census run")
	kindsFlag := fs.String("kinds", "", "comma-separated probe kinds to branch on (default: all)")
	faults := fs.String("faults", "", "fault scenario on the data disk (trail stack only), e.g. latent=2,timeout=2")
	faultSeed := fs.Uint64("fault-seed", 1, "fault plan seed")
	jsonOut := fs.Bool("json", false, "write the full report as JSON to stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "crashexplore:", err)
		return 2
	}
	if *skip < 0 || *window < 0 || *horizon < 0 {
		return fail(fmt.Errorf("-skip %d, -window %d, -horizon %v: none may be negative", *skip, *window, *horizon))
	}

	st, err := stacks.ByName(*stackName, *faults, *faultSeed)
	if err != nil {
		return fail(err)
	}
	opts := crashexplore.Options{Seed: *seed, Skip: *skip, Window: *window, Horizon: *horizon}
	if *kindsFlag != "" {
		for _, name := range strings.Split(*kindsFlag, ",") {
			k, err := crashexplore.ParseKind(strings.TrimSpace(name))
			if err != nil {
				return fail(err)
			}
			opts.Kinds = append(opts.Kinds, k)
		}
	}

	rep, err := crashexplore.New(st, opts).Run()
	if err != nil {
		return fail(err)
	}

	if *jsonOut {
		if err := rep.WriteJSON(stdout); err != nil {
			return fail(err)
		}
	} else {
		printSummary(stdout, rep)
	}
	if rep.Failed() {
		return 1
	}
	return 0
}

func printSummary(w io.Writer, rep *crashexplore.Report) {
	fmt.Fprintf(w, "stack seed %d: %d probes observed, %d candidate events in window, %d branches explored\n",
		rep.Seed, rep.TotalProbes, rep.Candidates, rep.Explored)
	if !rep.Failed() {
		fmt.Fprintf(w, "PASS: all %d branches uphold the durability contract\n", rep.Explored)
		return
	}
	fmt.Fprintf(w, "FAIL: %d lost, %d torn, %d error branches; first failing event index %d\n",
		rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing)
	for _, b := range rep.Branches {
		if len(b.Failures) == 0 && b.Err == "" {
			continue
		}
		fmt.Fprintf(w, "  event %d (%s %s lba=%d n=%d at=%s):",
			b.Event.Index, b.Event.Kind, b.Event.Dev, b.Event.LBA, b.Event.Count,
			sim.Time(b.Event.At).Sub(sim.Time(0)))
		if b.Err != "" {
			fmt.Fprintf(w, " recovery error: %s", b.Err)
		}
		for _, f := range b.Failures {
			if f.Torn {
				fmt.Fprintf(w, " slot %d torn", f.Slot)
			} else {
				fmt.Fprintf(w, " slot %d acked v%d found v%d", f.Slot, f.Acked, f.Found)
			}
		}
		fmt.Fprintln(w)
	}
}
