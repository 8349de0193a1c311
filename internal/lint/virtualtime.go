package lint

import (
	"go/ast"
	"strings"
)

// VirtualTime forbids wall-clock time in simulated-path packages.
//
// The rotational model is microsecond-exact: the Trail driver predicts the
// sector under the head from virtual timestamps, and one stray time.Now in
// a simulated path silently decouples the prediction from the simulator's
// ground truth (and makes two same-seed runs diverge). All timing must flow
// through sim.Env.Now / sim.Proc timers. time.Duration values and
// constants (time.Millisecond, ...) remain legal — only the wall-clock
// entry points are banned, whether called or passed as function values.
//
// There are no exceptions: the module has one clock. Host cost (wall time,
// allocations) is measured from outside the linted tree by bench/.
//
// The check is whole-program: beyond direct time.* references, any function
// that *reaches* the wall clock through the call graph is flagged at its
// first offending call edge, with the witness chain. A //lint:allow
// sanctions the site it covers, not the functions that call it — a helper
// may carry an escape, but a simulated-path package calling that helper is
// still a finding. Functions with their own direct time.* references are
// the direct half's territory and are not re-reported indirectly.
var VirtualTime = &Analyzer{
	Name: "virtualtime",
	Doc:  "forbid wall-clock time (time.Now, time.Sleep, ...) in simulated-path packages",
	Run:  runVirtualTime,
}

// wallClockBanned is the set of package time entry points that read or wait
// on the wall clock.
var wallClockBanned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// simulatedPathPrefixes marks the packages whose time must be virtual. The
// whole library tree qualifies: every internal package either runs under
// the simulator or produces deterministic artifacts from virtual
// timestamps. Binaries under cmd/ are covered too, so a new tool cannot
// quietly mix clocks.
var simulatedPathPrefixes = []string{
	"tracklog",
}

func runVirtualTime(pass *Pass) error {
	inScope := false
	for _, prefix := range simulatedPathPrefixes {
		if pass.Path == prefix || strings.HasPrefix(pass.Path, prefix+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if !wallClockBanned[obj.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a simulated-path package; route timing through the virtual clock (sim.Env.Now / sim.Proc timers)",
				obj.Name())
			return true
		})
	}
	reportIndirectTime(pass)
	return nil
}

// reportIndirectTime is the whole-program half: functions with no direct
// time.* reference whose call graph still reaches the wall clock are
// flagged at their first offending call edge.
func reportIndirectTime(pass *Pass) {
	chains := pass.Prog.timeTaint()
	for _, fid := range pass.Prog.FuncsOfPackage(pass.CurPkg) {
		fi := pass.Prog.Funcs[fid]
		if len(fi.TimeRefs) > 0 {
			continue // a leaf: the direct half reported it
		}
		if c := firstTaintedCall(fi, chains); c != nil {
			pass.Reportf(c.Pos,
				"call reaches the wall clock (%s) from a simulated-path package; route timing through the virtual clock",
				renderChain(chains[c.ID]))
		}
	}
}

// timeTaint seeds the caller-ward taint closure with every banned time.*
// reference — sanctioned or not: an escape covers the site, never its
// callers.
func (prog *Program) timeTaint() map[string][]string {
	if prog.timeChains == nil {
		seeds := make(map[string]string)
		for id, fi := range prog.Funcs {
			if len(fi.TimeRefs) > 0 {
				seeds[id] = "time." + fi.TimeRefs[0].Name
			}
		}
		prog.timeChains = prog.taintCallers(seeds)
	}
	return prog.timeChains
}
