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
//     Collect the keys, sort them, and range the sorted slice instead. The
//     check is whole-program: a sink reached through a helper call (or a
//     chain of them) is traced over the call graph and reported with the
//     witness chain.
//
// Both rules have an interprocedural half built on the call-graph engine:
// a function with no direct banned-rand reference whose call graph still
// reaches one is flagged at its first offending call edge (the sanctioned
// generator internal/sim/rand.go does not seed taint — drawing from
// sim.Rand is the fix, not a finding).
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
	if !strings.HasPrefix(pass.Path, "tracklog") {
		return nil
	}
	for _, file := range pass.Files {
		checkRandImports(pass, file)
		checkMapRangeSinks(pass, file)
	}
	reportIndirectRand(pass)
	return nil
}

// reportIndirectRand flags functions with no banned-rand reference of their
// own whose call graph reaches one (outside the exempt generator).
func reportIndirectRand(pass *Pass) {
	chains := pass.Prog.randTaint()
	for _, fid := range pass.Prog.FuncsOfPackage(pass.CurPkg) {
		fi := pass.Prog.Funcs[fid]
		if len(fi.RandRefs) > 0 {
			continue // a leaf: the direct import check owns it
		}
		if c := firstTaintedCall(fi, chains); c != nil {
			pass.Reportf(c.Pos,
				"call reaches a banned rand package (%s); draw randomness from sim.Rand (internal/sim/rand.go)",
				renderChain(chains[c.ID]))
		}
	}
}

// randTaint seeds the caller-ward taint closure with every banned-rand
// reference outside the exempt generator file.
func (prog *Program) randTaint() map[string][]string {
	if prog.randChains == nil {
		seeds := make(map[string]string)
		for id, fi := range prog.Funcs {
			if len(fi.RandRefs) == 0 {
				continue
			}
			if NormalizePath(fi.Pkg.ImportPath) == randExemptPath &&
				filepath.Base(fi.Pkg.Fset.Position(fi.RandRefs[0]).Filename) == randExemptFile {
				continue
			}
			seeds[id] = "banned rand"
		}
		prog.randChains = prog.taintCallers(seeds)
	}
	return prog.randChains
}

// sinkTaint seeds the caller-ward taint closure with every direct sink
// call, for the helper-mediated map-range check.
func (prog *Program) sinkTaint() map[string][]string {
	if prog.sinkChains == nil {
		seeds := make(map[string]string)
		for id, fi := range prog.Funcs {
			if len(fi.SinkCalls) > 0 {
				seeds[id] = fi.SinkCalls[0].Sink
			}
		}
		prog.sinkChains = prog.taintCallers(seeds)
	}
	return prog.sinkChains
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
			if sink := sinkName(pass, call); sink != "" {
				pass.Reportf(rng.For,
					"map iteration order is randomized, but this range body reaches %s %s; collect the keys, sort them, and range the sorted slice",
					sinkKind(sink), sink)
				done = true
				return false
			}
			// Helper-mediated: the callee is not a sink itself but its call
			// graph reaches one.
			if callee := pass.calleeFunc(call); callee != nil {
				if chain := chains[FuncID(callee)]; chain != nil {
					pass.Reportf(rng.For,
						"map iteration order is randomized, but this range body reaches %s via helper (%s); collect the keys, sort them, and range the sorted slice",
						sinkKind(chain[len(chain)-1]), renderChain(chain))
					done = true
					return false
				}
			}
			return true
		})
		return true
	})
}

// sinkName reports the human-readable name of the sink a call
// targets, or "" if the call is not a sink. The classification itself lives
// in sinkNameFromFunc (callgraph.go), shared with the whole-program
// summaries.
func sinkName(pass *Pass, call *ast.CallExpr) string {
	return sinkNameFromFunc(pass.calleeFunc(call))
}
