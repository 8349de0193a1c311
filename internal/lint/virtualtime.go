package lint

import "go/ast"

// VirtualTime forbids wall-clock time anywhere in the module.
//
// The rotational model is microsecond-exact: the Trail driver predicts the
// sector under the head from virtual timestamps, and one stray time.Now in
// a simulated path silently decouples the prediction from the simulator's
// ground truth (and makes two same-seed runs diverge). All timing must flow
// through sim.Env.Now / sim.Proc timers. time.Duration values and
// constants (time.Millisecond, ...) remain legal — only the wall-clock
// entry points are banned, whether called or passed as function values.
//
// There are no exceptions and no scope list: the module has one clock.
// Host cost (wall time, allocations) is measured from outside the linted
// tree by bench/.
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

func runVirtualTime(pass *Pass) error {
	if !inModule(pass.Path) {
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
	return nil
}
