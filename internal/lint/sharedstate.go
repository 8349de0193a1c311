package lint

import (
	"go/token"
	"sort"
	"strings"
)

// SharedState is the parallel-DES safety baseline. Conservative parallel
// simulation partitions the event queue by shard/disk and runs each
// partition's handlers concurrently up to the lookahead horizon; that is
// only sound if no two partitions' handlers race on state outside the
// kernel. This analyzer computes, from each event-handler root (every
// function or literal passed to sim.Env.Go / GoDaemon), the call-graph
// closure of that root, and reports every package-level variable mutated on
// more than one root's path without going through sim.Env.
//
// Variables owned by internal/sim itself are exempt: the kernel serializes
// its own state by construction (it is the thing being parallelized, and
// its internals are the synchronization point). Everything else mutated
// from two roots is a machine-checked blocker for the conservative-parallel
// kernel and must either move behind sim.Env, become per-root state, or
// carry a //lint:allow sharedstate <reason> at the mutation site.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc:  "package-level variables mutated from more than one event-handler root block conservative-parallel DES",
	Run:  runSharedState,
}

// sharedSite is one reportable mutation of a multi-root variable.
type sharedSite struct {
	vr    string
	fn    *FuncInfo
	pos   token.Pos
	roots []string // display names of the mutating roots, sorted
}

func runSharedState(pass *Pass) error {
	if !strings.HasPrefix(pass.Path, "tracklog") {
		return nil
	}
	for _, s := range pass.Prog.sharedSites() {
		if s.fn.Pkg != pass.CurPkg {
			continue
		}
		pass.Reportf(s.pos,
			"package-level var %s is mutated on %d event-handler roots (%s); shared state outside sim.Env blocks conservative-parallel DES — move it behind the kernel or make it per-root",
			DisplayName(s.vr), len(s.roots), strings.Join(s.roots, ", "))
	}
	return nil
}

// sharedSites computes (once per Program) every mutation site of a
// package-level variable that more than one event-handler root reaches.
func (prog *Program) sharedSites() []sharedSite {
	if prog.sharedComputed {
		return prog.shared
	}
	prog.sharedComputed = true

	roots := prog.Roots()
	closures := make(map[string]map[string]bool, len(roots))
	for _, r := range roots {
		closures[r] = prog.Reach([]string{r}, true)
	}

	// mutatingRoots maps each in-scope package var to the set of roots whose
	// closure mutates it.
	mutatingRoots := make(map[string]map[string]bool)
	for _, fid := range sortedFuncIDs(prog) {
		fi := prog.Funcs[fid]
		for _, vm := range fi.VarMuts {
			if !sharedStateInScope(vm.Var) {
				continue
			}
			for _, r := range roots {
				if closures[r][fid] {
					if mutatingRoots[vm.Var] == nil {
						mutatingRoots[vm.Var] = make(map[string]bool)
					}
					mutatingRoots[vm.Var][r] = true
				}
			}
		}
	}

	for _, fid := range sortedFuncIDs(prog) {
		fi := prog.Funcs[fid]
		for _, vm := range fi.VarMuts {
			rs := mutatingRoots[vm.Var]
			if len(rs) < 2 {
				continue
			}
			// Report only sites on some root's path: a mutation in setup
			// code that also writes the var runs before the event loop and
			// is not a race.
			onPath := false
			for r := range rs {
				if closures[r][fid] {
					onPath = true
					break
				}
			}
			if !onPath {
				continue
			}
			names := make([]string, 0, len(rs))
			for r := range rs {
				names = append(names, DisplayName(r))
			}
			sort.Strings(names)
			prog.shared = append(prog.shared, sharedSite{vr: vm.Var, fn: fi, pos: vm.Pos, roots: names})
		}
	}
	return prog.shared
}

// sortedFuncIDs returns every function ID in the program in deterministic
// order.
func sortedFuncIDs(prog *Program) []string {
	out := make([]string, 0, len(prog.Funcs))
	for id := range prog.Funcs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// sharedStateInScope reports whether a package-level variable participates
// in the shared-state audit: module-owned, and not the simulation kernel's
// own serialized state.
func sharedStateInScope(varID string) bool {
	return strings.HasPrefix(varID, "tracklog") &&
		!strings.HasPrefix(varID, "tracklog/internal/sim.")
}
