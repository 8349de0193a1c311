// Command crashexplore exhaustively explores crash points in a simulated
// storage stack. It enumerates every interesting event in a window — each
// write acknowledgement, each media sector write, each write-back flight
// boundary, each commit — replays the world up to that event, cuts power
// there, runs the stack's recovery, and audits the durability contract:
// every acknowledged write survives, untorn.
//
// Usage:
//
//	crashexplore -stack trail|raid5|wal [-seed N] [-skip N] [-window N]
//	             [-horizon DUR] [-kinds ack,media-write,...]
//	             [-faults SCENARIO] [-fault-seed N] [-json]
//
// The exit status is nonzero if any branch loses or tears an acknowledged
// write — the first failing event index in the summary is the minimal
// counterexample for bisection.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tracklog/internal/crashexplore"
	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/sim"
)

func main() {
	stackName := flag.String("stack", "trail", "stack under test: trail, raid5, or wal")
	seed := flag.Uint64("seed", 1, "workload seed")
	skip := flag.Int64("skip", 0, "first probe index to explore")
	window := flag.Int64("window", 100, "number of probe indices to scan from -skip")
	horizon := flag.Duration("horizon", crashexplore.DefaultHorizon, "virtual-time budget per branch")
	kindsFlag := flag.String("kinds", "", "comma-separated probe kinds to branch on (default: all)")
	faults := flag.String("faults", "", "fault scenario on the data disk (trail stack only), e.g. latent=2,timeout=2")
	faultSeed := flag.Uint64("fault-seed", 1, "fault plan seed")
	jsonOut := flag.Bool("json", false, "write the full report as JSON to stdout")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crashexplore:", err)
		os.Exit(2)
	}

	st, err := stacks.ByName(*stackName, *faults, *faultSeed)
	if err != nil {
		fail(err)
	}
	opts := crashexplore.Options{Seed: *seed, Skip: *skip, Window: *window, Horizon: *horizon}
	if *kindsFlag != "" {
		for _, name := range strings.Split(*kindsFlag, ",") {
			k, err := crashexplore.ParseKind(strings.TrimSpace(name))
			if err != nil {
				fail(err)
			}
			opts.Kinds = append(opts.Kinds, k)
		}
	}

	rep, err := crashexplore.New(st.Stack, opts).Run()
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fail(err)
		}
	} else {
		printSummary(rep)
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

func printSummary(rep *crashexplore.Report) {
	fmt.Printf("stack seed %d: %d probes observed, %d candidate events in window, %d branches explored\n",
		rep.Seed, rep.TotalProbes, rep.Candidates, rep.Explored)
	if !rep.Failed() {
		fmt.Printf("PASS: all %d branches uphold the durability contract\n", rep.Explored)
		return
	}
	fmt.Printf("FAIL: %d lost, %d torn, %d error branches; first failing event index %d\n",
		rep.LostBranches, rep.TornBranches, rep.ErrorBranches, rep.FirstFailing)
	for _, b := range rep.Branches {
		if len(b.Failures) == 0 && b.Err == "" {
			continue
		}
		fmt.Printf("  event %d (%s %s lba=%d n=%d at=%s):",
			b.Event.Index, b.Event.Kind, b.Event.Dev, b.Event.LBA, b.Event.Count,
			sim.Time(b.Event.At).Sub(sim.Time(0)))
		if b.Err != "" {
			fmt.Printf(" recovery error: %s", b.Err)
		}
		for _, f := range b.Failures {
			if f.Torn {
				fmt.Printf(" slot %d torn", f.Slot)
			} else {
				fmt.Printf(" slot %d acked v%d found v%d", f.Slot, f.Acked, f.Found)
			}
		}
		fmt.Println()
	}
}
