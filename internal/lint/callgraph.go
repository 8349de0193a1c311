package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The whole-program layer: per-function summaries linked into a repo-wide
// call graph, so determinism can tell that a map-range body reaches a sink
// through a helper (or a chain of them, across packages).
//
// Each root package is type-checked from source while its dependencies are
// imported from compiler export data, so one declaration can be two distinct
// types.Object values. The graph therefore keys functions by normalized
// string IDs built from NormalizePath-ed import paths, never by object
// pointers:
//
//	tracklog/internal/trail.writeRecord                 function
//	tracklog/internal/txn.(Txn).releaseAll              method
//	tracklog/internal/txn.(Txn).releaseAll.func@270     function literal
//
// Only static references are edges: a call through an interface is not
// followed.

// A Program is the whole-program view over one Run: every function summary,
// and the sink-taint closure computed from them on first use.
type Program struct {
	// Funcs maps normalized function IDs to their summaries. Function
	// literals get synthesized IDs scoped to their enclosing declaration.
	Funcs map[string]*FuncInfo

	// sinkChains caches sinkTaint: function ID -> witness chain down to
	// the sink it reaches.
	sinkChains map[string][]string
}

// A FuncInfo summarizes one function body.
type FuncInfo struct {
	// Calls holds the IDs of every statically resolved function referenced
	// in the body — called directly or taken as a value (a reference is a
	// potential call; reachability is conservative).
	Calls []string

	// Literals holds the IDs of function literals contained directly in
	// this body. Their calls are the enclosing function's calls: the body
	// runs them, or hands them to something that does.
	Literals []string

	// Sink names the first direct sink call in the body, as classified by
	// sinkNameFromFunc ("" when there is none).
	Sink string
}

// FuncID returns the normalized ID of a function object, or "" when the
// object has no home package (builtins, methods of the universe error type).
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	path := NormalizePath(fn.Pkg().Path())
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return path + "." + fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return path + ".(" + named.Obj().Name() + ")." + fn.Name()
	}
	return path + "." + fn.Name()
}

// BuildProgram summarizes every function body of pkgs. It never fails:
// unresolvable references simply contribute no edges.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Funcs: make(map[string]*FuncInfo)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				id := FuncID(fn)
				if id == "" {
					id = NormalizePath(pkg.ImportPath) + "." + fd.Name.Name
				}
				fi := &FuncInfo{}
				prog.Funcs[id] = fi
				prog.summarize(pkg, id, fi, fd.Body)
			}
		}
	}
	return prog
}

// summarize walks one function body, filling fi and creating child
// summaries for contained function literals.
func (prog *Program) summarize(pkg *Package, id string, fi *FuncInfo, body *ast.BlockStmt) {
	litSeq := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litSeq++
			line := pkg.Fset.Position(n.Pos()).Line
			litID := fmt.Sprintf("%s.func@%d", id, line)
			if _, taken := prog.Funcs[litID]; taken {
				// Two literals on one line: disambiguate by sequence.
				litID = fmt.Sprintf("%s.func@%d#%d", id, line, litSeq)
			}
			lit := &FuncInfo{}
			prog.Funcs[litID] = lit
			fi.Literals = append(fi.Literals, litID)
			prog.summarize(pkg, litID, lit, n.Body)
			return false
		case *ast.Ident:
			// Selector expressions reach here through their Sel ident.
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				if fid := FuncID(fn); fid != "" {
					fi.Calls = append(fi.Calls, fid)
				}
			}
		case *ast.CallExpr:
			if fi.Sink == "" {
				fi.Sink = sinkNameFromFunc(calleeOf(pkg.Info, n))
			}
		}
		return true
	})
}

// sinkTaint returns, for every function that reaches a sink through static
// calls and contained literals, its witness chain down to the sink.
func (prog *Program) sinkTaint() map[string][]string {
	if prog.sinkChains == nil {
		seeds := make(map[string]string)
		for id, fi := range prog.Funcs {
			if fi.Sink != "" {
				seeds[id] = fi.Sink
			}
		}
		prog.sinkChains = prog.taintCallers(seeds)
	}
	return prog.sinkChains
}

// taintCallers propagates seeded facts caller-ward: given a leaf
// description per directly offending function, it computes for every
// function that can reach one a witness chain from its callee down to the
// leaf. Seeded functions map to their own one-element chain. BFS over
// sorted worklists keeps chains shortest and deterministic.
func (prog *Program) taintCallers(seeds map[string]string) map[string][]string {
	chains := make(map[string][]string, len(seeds))
	rev := make(map[string][]string)
	for id, fi := range prog.Funcs {
		for _, c := range fi.Calls {
			rev[c] = append(rev[c], id)
		}
		for _, lid := range fi.Literals {
			rev[lid] = append(rev[lid], id)
		}
	}
	queue := make([]string, 0, len(seeds))
	for id, leaf := range seeds {
		chains[id] = []string{leaf}
		queue = append(queue, id)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		next := append([]string{DisplayName(id)}, chains[id]...)
		callers := append([]string(nil), rev[id]...)
		sort.Strings(callers)
		for _, caller := range callers {
			if _, seen := chains[caller]; seen {
				continue
			}
			chains[caller] = next
			queue = append(queue, caller)
		}
	}
	return chains
}

// DisplayName renders a function ID for diagnostics: the import-path prefix
// is trimmed to the package's base name ("trail.(Driver).flushLog").
func DisplayName(id string) string {
	return id[strings.LastIndex(id, "/")+1:]
}

// renderChain formats a witness chain for a diagnostic, eliding the middle
// of long chains.
func renderChain(chain []string) string {
	if len(chain) > 4 {
		chain = append(append([]string{}, chain[:2]...), "...", chain[len(chain)-1])
	}
	return strings.Join(chain, " -> ")
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
