package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Determinism enforces the byte-determinism story: same seed, same bytes,
// in traces, span dumps, bench summaries and reports.
//
// Three rules:
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
//
//  3. A map range that selects is flagged: one that uses its key or value
//     and leaves early, by a return with a non-constant result or by a
//     break after storing the key or value in an outer variable. The first
//     match in map order wins. Existence tests (return true, return nil, a
//     break that stores nothing from the range) stay legal.
//
// Both map-range rules read the loop body alone, not the functions it
// calls. The fix is the same: range the sorted keys instead.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid math/rand outside internal/sim, and map ranges that emit, schedule or keep the first match",
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
		checkMapRanges(pass, file)
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

// checkMapRanges flags each `for ... range m` over a map-typed m whose body
// calls a sink (rule 2) or selects the first match (rule 3).
func checkMapRanges(pass *Pass, file *ast.File) {
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
		sink, selects := scanRangeBody(pass.Info, rng)
		if sink != "" {
			pass.Reportf(rng.For,
				"map iteration order is randomized, but this range body reaches %s %s; collect the keys, sort them, and range the sorted slice",
				sinkKind(sink), sink)
		}
		if selects != "" {
			pass.Reportf(rng.For,
				"map iteration order is randomized, but this range body %s, so the first match in map order wins; collect the keys, sort them, and range the sorted slice",
				selects)
		}
		return true
	})
}

// scanRangeBody walks a map range's body once. It returns the first sink
// the body calls, and how the body selects the first match ("" for each
// when it does not).
func scanRangeBody(info *types.Info, rng *ast.RangeStmt) (sink, selects string) {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			vars[info.ObjectOf(id)] = true
		}
	}
	stack := []ast.Node{} // the nodes from rng.Body down to the current one
	stored := ""          // the outer variable a key or value was stored in
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok && sink == "" {
			sink = sinkNameFromFunc(calleeOf(info, call))
		}
		if len(vars) == 0 || selects != "" || nested(stack, false) {
			return true
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if tv := info.Types[r]; tv.Value == nil && !tv.IsNil() {
					selects = "returns a non-constant result"
				}
			}
		case *ast.AssignStmt:
			if stored == "" && n.Tok != token.DEFINE && mentions(info, n.Rhs, vars) {
				stored = outerVar(info, n.Lhs, rng)
			}
		case *ast.BranchStmt:
			if n.Tok != token.BREAK || stored == "" {
				break
			}
			if n.Label == nil && !nested(stack, true) || n.Label != nil && info.Uses[n.Label].Pos() < rng.Pos() {
				selects = "breaks out after storing the key or value in " + stored
			}
		}
		return true
	})
	return sink, selects
}

// nested reports whether stack, from a range body down, passes through a
// function literal, whose returns and breaks do not leave the range, or,
// when breakable, through a loop, switch or select an unlabeled break
// leaves instead.
func nested(stack []ast.Node, breakable bool) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncLit:
			return true
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if breakable {
				return true
			}
		}
	}
	return false
}

// mentions reports whether any of exprs uses one of vars.
func mentions(info *types.Info, exprs []ast.Expr, vars map[types.Object]bool) (found bool) {
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			found = found || ok && vars[info.Uses[id]]
			return !found
		})
	}
	return found
}

// outerVar returns the name of the first of lhs that is a variable declared
// outside rng, or "".
func outerVar(info *types.Info, lhs []ast.Expr, rng *ast.RangeStmt) string {
	for _, e := range lhs {
		id, _ := e.(*ast.Ident)
		if v, ok := info.Uses[id].(*types.Var); ok && (v.Pos() < rng.Pos() || v.Pos() >= rng.End()) {
			return id.Name
		}
	}
	return ""
}

// sinkNameFromFunc reports the human-readable name of the sink fn is, or ""
// if calling fn emits no bytes and schedules nothing.
func sinkNameFromFunc(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch pkg {
	case "fmt":
		switch name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + name
		}
	case "io":
		if name == "WriteString" {
			return "io.WriteString"
		}
	case "os":
		if name == "WriteFile" {
			return "os.WriteFile"
		}
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	recvName := fmt.Sprintf("%s.%s", named.Obj().Pkg().Path(), named.Obj().Name())
	switch recvName {
	case "encoding/json.Encoder":
		if name == "Encode" {
			return "json.Encoder.Encode"
		}
	case "encoding/csv.Writer":
		if name == "Write" || name == "WriteAll" {
			return "csv.Writer." + name
		}
	case "bufio.Writer", "bytes.Buffer", "strings.Builder":
		if strings.HasPrefix(name, "Write") {
			return fmt.Sprintf("%s.%s", named.Obj().Name(), name)
		}
	}
	switch NormalizePath(named.Obj().Pkg().Path()) {
	case "tracklog/internal/trace":
		if named.Obj().Name() == "ChromeWriter" {
			return "trace.ChromeWriter." + name
		}
	case "tracklog/internal/sim":
		// Kernel scheduling calls: processes made runnable at one instant
		// run in the order they were made runnable.
		switch call := named.Obj().Name() + "." + name; call {
		case "Event.Trigger", "Cond.Signal", "Cond.Broadcast", "Env.Go", "Env.GoDaemon", "Resource.Release":
			return schedSinkPrefix + call
		}
	}
	return ""
}

// schedSinkPrefix starts the name of every kernel-scheduling sink, which is
// how sinkKind tells them from output sinks.
const schedSinkPrefix = "sim."

// sinkKind is the noun a diagnostic gives a sink.
func sinkKind(sink string) string {
	if strings.HasPrefix(sink, schedSinkPrefix) {
		return "scheduling call"
	}
	return "output sink"
}
