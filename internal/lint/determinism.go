package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism enforces the byte-determinism story: same seed, same bytes,
// in traces, span dumps, bench summaries and reports.
//
// Two rules:
//
//  1. math/rand (v1 and v2) and crypto/rand are banned everywhere except
//     internal/sim/rand.go, the one deterministic generator the stack is
//     allowed to draw from. math/rand's global source can be reseeded from
//     the wall clock by any import in the binary; crypto/rand is
//     nondeterministic by design.
//
//  2. Ranging over a map into a sink is flagged. Map iteration order is
//     randomized per run, so any fmt print, JSON/CSV writer, buffered
//     writer or Chrome trace emission inside a map-range body produces
//     run-dependent bytes, and any kernel scheduling call there
//     (sim.Event.Trigger, sim.Cond.Signal/Broadcast, sim.Env.Go/GoDaemon,
//     sim.Resource.Release) a run-dependent schedule: processes made
//     runnable at one instant run in the order they were made runnable.
//     Collect the keys, sort them, and range the sorted slice instead. A
//     sink reached through a helper call (or a chain of them, across
//     packages) is traced over the call graph and reported with the
//     witness chain.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand outside internal/sim and map-range iteration into output or scheduling sinks",
	Run:  runDeterminism,
}

// randExemptPath/randExemptFile name the one file allowed to mention the
// banned rand packages: the simulator's own deterministic source.
const (
	randExemptPath = "tracklog/internal/sim"
	randExemptFile = "rand.go"
)

var bannedRandImports = map[string]string{
	"math/rand":    "math/rand's global source is reseedable from the wall clock",
	"math/rand/v2": "math/rand/v2 is seeded from runtime entropy",
	"crypto/rand":  "crypto/rand is nondeterministic by design",
}

func runDeterminism(pass *Pass) error {
	if !inModule(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		checkRandImports(pass, file)
		checkMapRangeSinks(pass, file)
	}
	return nil
}

func checkRandImports(pass *Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		why, banned := bannedRandImports[path]
		if !banned {
			continue
		}
		pos := pass.Fset.Position(imp.Pos())
		if pass.Path == randExemptPath && filepath.Base(pos.Filename) == randExemptFile {
			continue
		}
		pass.Reportf(imp.Pos(),
			"import of %s breaks reproducibility (%s); draw randomness from sim.Rand (internal/sim/rand.go)",
			path, why)
	}
}

// checkMapRangeSinks flags `for ... := range m { ... sink ... }` where m is
// map-typed and the loop body (including nested statements) contains a call
// to a sink.
func checkMapRangeSinks(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		chains := pass.Prog.sinkTaint()
		done := false
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			if done {
				return false
			}
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pass.Info, call)
			if sink := sinkNameFromFunc(callee); sink != "" {
				pass.Reportf(rng.For,
					"map iteration order is randomized, but this range body reaches %s %s; collect the keys, sort them, and range the sorted slice",
					sinkKind(sink), sink)
				done = true
				return false
			}
			// Helper-mediated: the callee is not a sink itself but its call
			// graph reaches one.
			if chain := chains[FuncID(callee)]; chain != nil {
				pass.Reportf(rng.For,
					"map iteration order is randomized, but this range body reaches %s via helper (%s); collect the keys, sort them, and range the sorted slice",
					sinkKind(chain[len(chain)-1]), renderChain(chain))
				done = true
				return false
			}
			return true
		})
		return true
	})
}
