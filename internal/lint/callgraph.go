package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The whole-program layer: per-package function summaries linked into a
// repo-wide call graph with method-set resolution for interface dispatch.
//
// The engine runs on the same stdlib-only loader as the per-package
// analyzers. Because each root package is type-checked from source while its
// dependencies are imported from compiler export data, the same declaration
// can be represented by two distinct types.Object universes (source-checked
// in its home package, export-imported everywhere else). The graph therefore
// keys everything by *normalized string identity* — universe-independent
// function, type, field and variable IDs built from NormalizePath-ed import
// paths — instead of object pointers:
//
//	tracklog/internal/sim.(Env).EmitProbe    method
//	tracklog/internal/trail.writeRecord      function
//	tracklog/internal/trail.Driver           named type
//	tracklog/internal/trail.Driver.seq       field
//	tracklog/internal/wal.ErrLogFull         package-level var
//	tracklog/internal/trail.(Driver).flushLog.func@412  function literal
//
// Interface dispatch is resolved RTA-style: a call through an interface
// method resolves to every named type in the analyzed program whose method
// set structurally implements the interface (method names plus normalized
// signature strings, so implementations match across type-checker
// universes). That covers the repo's own dispatch points — snapshot.
// Snapshotter, trace/span/telemetry handles, blockdev.Device, qos hooks —
// without ever comparing types.Object identities across packages.
//
// In `go vet -vettool` unit mode only one compilation unit has source, so
// the graph degrades to that package's own functions; the whole-program
// analyzers still check everything visible but cannot follow edges into
// units they cannot see. The standalone driver (cmd/trailcheck ./...) and
// TestRealTreeIsClean load the full tree and get the full graph.

// A Program is the whole-program view over one Load result: every function
// summary, every named type, and the indexes the analyzers resolve calls
// and method sets through.
type Program struct {
	Pkgs []*Package

	// Funcs maps normalized function IDs to their summaries. Function
	// literals get synthesized IDs scoped to their enclosing declaration.
	Funcs map[string]*FuncInfo

	// Types maps normalized type IDs ("pkg.Name") of named types declared
	// in the analyzed packages to their summaries.
	Types map[string]*TypeInfo

	// methodIndex maps a method name to the type IDs declaring or promoting
	// a method with that name, for RTA candidate lookup.
	methodIndex map[string][]string

	// allowIndex caches (file, line, analyzer) triples covered by a
	// well-formed //lint:allow directive; built lazily by allowedAt.
	allowIndex map[allowKey]bool

	// shared caches the sharedstate computation (root closures intersected
	// with package-var mutations), which is program-global but reported
	// per-package.
	sharedComputed bool
	shared         []sharedSite

	// timeChains/randChains/sinkChains cache the caller-ward taint closures
	// of the interprocedural virtualtime/determinism halves: function ID ->
	// witness chain down to the offending leaf.
	timeChains map[string][]string
	randChains map[string][]string
	sinkChains map[string][]string
}

// A FuncInfo summarizes one function body: the edges it contributes to the
// call graph and the state it touches.
type FuncInfo struct {
	ID   string
	Pkg  *Package
	File *ast.File
	Pos  token.Pos

	// Decl is the declaration, nil for function literals.
	Decl *ast.FuncDecl

	// Calls holds the normalized IDs of every statically resolved function
	// referenced in the body — called directly or taken as a value (a
	// reference is a potential call; reachability is conservative).
	Calls []CallRef

	// DynCalls holds interface-dispatch sites: method name plus normalized
	// receiver-interface and signature strings, resolved via RTA.
	DynCalls []DynCall

	// Literals holds the IDs of function literals contained directly in
	// this body. A literal passed to a process-spawn API is marked
	// SpawnArg on its own FuncInfo and runs as a separate event-handler
	// root, not as part of this function.
	Literals []string

	// SpawnArg marks a function literal passed directly to sim.Env.Go /
	// GoDaemon: the body runs as its own simulated process.
	SpawnArg bool

	// SpawnTargets holds the IDs of named functions/methods this body
	// passes to sim.Env.Go / GoDaemon — each is an event-handler root.
	SpawnTargets []string

	// FieldRefs records every struct field selection (including each step
	// of promoted/embedded chains and composite-literal keys).
	FieldRefs []FieldRef

	// VarMuts records mutations of package-level variables: direct
	// assignment, assignment through a selector/index chain rooted at the
	// variable, and ++/--.
	VarMuts []VarMut

	// TimeRefs records references to banned wall-clock entry points
	// (time.Now, time.Sleep, ...), called or taken as values.
	TimeRefs []TimeRef

	// RandRefs records references to symbols of the banned rand packages
	// outside the exempt file (seeds for indirect-reach detection).
	RandRefs []token.Pos

	// SinkCalls records direct sink calls (fmt printing, JSON/CSV writers,
	// kernel scheduling calls, ...) as classified by sinkName.
	SinkCalls []SinkCall

	// ProbeEmits records sim.Env.EmitProbe call sites with the probe-kind
	// constant they pass ("ProbeAck", ...; "?" when not a named constant).
	ProbeEmits []ProbeEmit

	// spawnLitPos holds positions of function literals passed directly to
	// a spawn API, resolved to SpawnArg marks once the walk completes.
	spawnLitPos []token.Pos
}

// A CallRef is one statically resolved function reference.
type CallRef struct {
	ID  string
	Pos token.Pos
}

// A DynCall is one interface-dispatch site.
type DynCall struct {
	Method string // method name
	Sig    string // normalized signature string (receiver excluded)
	Pos    token.Pos
}

// A FieldRef is one struct-field touch, attributed to the named type that
// declares the field.
type FieldRef struct {
	Type  string // normalized type ID of the declaring type
	Field string
	Pos   token.Pos
	Write bool
}

// A VarMut is one package-level variable mutation.
type VarMut struct {
	Var string // normalized "pkg.Name"
	Pos token.Pos
}

// A TimeRef is one banned wall-clock reference.
type TimeRef struct {
	Name string // "Now", "Sleep", ...
	Pos  token.Pos
}

// A SinkCall is one direct output-sink call.
type SinkCall struct {
	Sink string
	Pos  token.Pos
}

// A ProbeEmit is one sim.Env.EmitProbe call site.
type ProbeEmit struct {
	Kind string // constant name ("ProbeAck") or "?" for a computed kind
	Pos  token.Pos
}

// A TypeInfo summarizes one named type declared in an analyzed package.
type TypeInfo struct {
	ID   string
	Pkg  *Package
	Pos  token.Pos
	Obj  *types.TypeName
	Name string

	// Fields lists the struct's own fields in declaration order (empty for
	// non-struct types). Embedded fields appear under their type name.
	Fields []FieldDecl

	// Methods maps method name to the normalized ID of the declared or
	// promoted method body, over the method set of *T.
	Methods map[string]string

	// MethodSigs maps method name to its normalized signature string, for
	// structural interface checks across type-checker universes.
	MethodSigs map[string]string
}

// A FieldDecl is one struct field declaration.
type FieldDecl struct {
	Name     string
	Pos      token.Pos
	Embedded bool

	// Wiring marks fields whose type can never round-trip through a codec
	// byte-for-byte — functions, channels and interfaces — and which
	// snapshotguard therefore treats as non-state.
	Wiring bool
}

// normQualifier renders package paths in universe-independent form, so
// signature strings computed in different type-checker universes compare
// equal.
func normQualifier(p *types.Package) string {
	if p == nil {
		return ""
	}
	return NormalizePath(p.Path())
}

// sigString renders a function signature (receiver excluded, parameter
// names dropped) with normalized package qualifiers, so the same
// declaration renders identically whether it was type-checked from source
// or imported from export data, and regardless of parameter naming.
func sigString(sig *types.Signature) string {
	var b strings.Builder
	b.WriteString("func(")
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		t := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 {
			b.WriteString("...")
			if sl, ok := t.(*types.Slice); ok {
				t = sl.Elem()
			}
		}
		b.WriteString(types.TypeString(t, normQualifier))
	}
	b.WriteString(")")
	res := sig.Results()
	switch res.Len() {
	case 0:
	case 1:
		b.WriteString(" ")
		b.WriteString(types.TypeString(res.At(0).Type(), normQualifier))
	default:
		b.WriteString(" (")
		for i := 0; i < res.Len(); i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.TypeString(res.At(i).Type(), normQualifier))
		}
		b.WriteString(")")
	}
	return b.String()
}

// FuncID returns the normalized ID of a function object, or "" when the
// object has no home package (builtins, interface method stubs of the
// universe error type).
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
	recv := recvTypeName(sig.Recv().Type())
	if recv == "" {
		return path + "." + fn.Name()
	}
	return path + ".(" + recv + ")." + fn.Name()
}

// recvTypeName returns the bare receiver type name ("Driver" for *Driver).
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // interface method stub: dispatch is recorded as DynCall
	}
	return ""
}

// typeID returns the normalized ID of a named type, "" for others.
func typeID(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return NormalizePath(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// spawn APIs: passing a function here starts a new simulated process, i.e.
// a new event-handler root.
var spawnFuncs = map[string]bool{
	"tracklog/internal/sim.(Env).Go":       true,
	"tracklog/internal/sim.(Env).GoDaemon": true,
}

const emitProbeID = "tracklog/internal/sim.(Env).EmitProbe"

// BuildProgram constructs the whole-program view over pkgs. It never fails:
// unresolvable references simply contribute no edges.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       make(map[string]*FuncInfo),
		Types:       make(map[string]*TypeInfo),
		methodIndex: make(map[string][]string),
	}
	for _, pkg := range pkgs {
		prog.addTypes(pkg)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := prog.declID(pkg, fd)
				fi := &FuncInfo{ID: id, Pkg: pkg, File: file, Pos: fd.Pos(), Decl: fd}
				prog.Funcs[id] = fi
				prog.summarize(fi, fd.Body)
			}
		}
	}
	for _, fi := range prog.Funcs {
		fi.markSpawnLiterals(prog)
	}
	return prog
}

// declID computes the normalized ID of a function declaration.
func (prog *Program) declID(pkg *Package, fd *ast.FuncDecl) string {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		if id := FuncID(obj); id != "" {
			return id
		}
	}
	// Fallback for declarations the type checker could not resolve.
	return NormalizePath(pkg.ImportPath) + "." + fd.Name.Name
}

// addTypes registers every named type declared in pkg.
func (prog *Program) addTypes(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				ti := &TypeInfo{
					ID:         NormalizePath(pkg.ImportPath) + "." + obj.Name(),
					Pkg:        pkg,
					Pos:        ts.Pos(),
					Obj:        obj,
					Name:       obj.Name(),
					Methods:    make(map[string]string),
					MethodSigs: make(map[string]string),
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, f := range st.Fields.List {
						if len(f.Names) == 0 {
							ti.Fields = append(ti.Fields, FieldDecl{
								Name:     embeddedFieldName(f.Type),
								Pos:      f.Type.Pos(),
								Embedded: true,
							})
							continue
						}
						wiring := false
						if tv, ok := pkg.Info.Types[f.Type]; ok {
							wiring = isWiringType(tv.Type)
						}
						for _, name := range f.Names {
							ti.Fields = append(ti.Fields, FieldDecl{Name: name.Name, Pos: name.Pos(), Wiring: wiring})
						}
					}
				}
				mset := types.NewMethodSet(types.NewPointer(named))
				for i := 0; i < mset.Len(); i++ {
					m, ok := mset.At(i).Obj().(*types.Func)
					if !ok {
						continue
					}
					sig, ok := m.Type().(*types.Signature)
					if !ok {
						continue
					}
					ti.Methods[m.Name()] = FuncID(m)
					ti.MethodSigs[m.Name()] = sigString(sig)
				}
				prog.Types[ti.ID] = ti
				for name := range ti.Methods {
					prog.methodIndex[name] = append(prog.methodIndex[name], ti.ID)
				}
			}
		}
	}
}

// embeddedFieldName extracts the field name of an embedded type expression.
func embeddedFieldName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return embeddedFieldName(e.X)
	}
	return ""
}

// isWiringType reports whether a field of this type is inherently
// non-snapshotable wiring: functions, channels, and interface handles.
func isWiringType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// summarize walks one function body, filling fi and creating child
// summaries for contained function literals.
func (prog *Program) summarize(fi *FuncInfo, body *ast.BlockStmt) {
	pkg := fi.Pkg
	litSeq := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litSeq++
			pos := pkg.Fset.Position(n.Pos())
			child := &FuncInfo{
				ID:   fmt.Sprintf("%s.func@%d", fi.ID, pos.Line),
				Pkg:  pkg,
				File: fi.File,
				Pos:  n.Pos(),
			}
			// Two literals on one line: disambiguate by sequence.
			if _, taken := prog.Funcs[child.ID]; taken {
				child.ID = fmt.Sprintf("%s.func@%d#%d", fi.ID, pos.Line, litSeq)
			}
			prog.Funcs[child.ID] = child
			fi.Literals = append(fi.Literals, child.ID)
			prog.summarize(child, n.Body)
			return false // children summarized separately
		case *ast.Ident:
			prog.recordIdent(fi, n)
		case *ast.SelectorExpr:
			prog.recordSelector(fi, n)
		case *ast.CompositeLit:
			prog.recordComposite(fi, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				prog.recordMutation(fi, lhs)
			}
		case *ast.IncDecStmt:
			prog.recordMutation(fi, n.X)
		case *ast.CallExpr:
			prog.recordCall(fi, n)
		}
		return true
	}
	ast.Inspect(body, walk)
}

// recordIdent registers references to functions and banned rand symbols
// reached through a plain identifier (dot imports aside, function values
// and same-package calls).
func (prog *Program) recordIdent(fi *FuncInfo, id *ast.Ident) {
	obj := fi.Pkg.Info.Uses[id]
	if obj == nil {
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		if fid := FuncID(fn); fid != "" {
			fi.Calls = append(fi.Calls, CallRef{ID: fid, Pos: id.Pos()})
		}
	}
}

// recordSelector registers selector-reached references: qualified function
// uses, banned time/rand symbols, interface dispatch, and field touches.
func (prog *Program) recordSelector(fi *FuncInfo, sel *ast.SelectorExpr) {
	info := fi.Pkg.Info
	obj := info.Uses[sel.Sel]
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if wallClockBanned[fn.Name()] {
				fi.TimeRefs = append(fi.TimeRefs, TimeRef{Name: fn.Name(), Pos: sel.Pos()})
			}
		case "math/rand", "math/rand/v2", "crypto/rand":
			fi.RandRefs = append(fi.RandRefs, sel.Pos())
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				fi.DynCalls = append(fi.DynCalls, DynCall{Method: fn.Name(), Sig: sigString(sig), Pos: sel.Pos()})
				return
			}
		}
		if fid := FuncID(fn); fid != "" {
			fi.Calls = append(fi.Calls, CallRef{ID: fid, Pos: sel.Pos()})
		}
		return
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "math/rand" {
		// math/rand global source values (rand.Reader lives in crypto/rand).
		fi.RandRefs = append(fi.RandRefs, sel.Pos())
	}
	// Field selection: attribute every step of the (possibly promoted)
	// chain to its declaring type.
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		prog.recordFieldChain(fi, sel, selection, false)
	}
}

// recordFieldChain walks a field selection's index path, attributing each
// traversed field to the named type it belongs to.
func (prog *Program) recordFieldChain(fi *FuncInfo, sel *ast.SelectorExpr, selection *types.Selection, write bool) {
	t := selection.Recv()
	for _, idx := range selection.Index() {
		st, ok := derefStruct(t)
		if !ok || idx >= st.NumFields() {
			return
		}
		f := st.Field(idx)
		if id := typeID(t); id != "" {
			fi.FieldRefs = append(fi.FieldRefs, FieldRef{Type: id, Field: f.Name(), Pos: sel.Pos(), Write: write})
		}
		t = f.Type()
	}
}

// derefStruct unwraps pointers and named types down to a struct.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// recordComposite registers composite-literal field initializations as
// writes: keyed literals per named key, unkeyed literals for every field.
func (prog *Program) recordComposite(fi *FuncInfo, lit *ast.CompositeLit) {
	info := fi.Pkg.Info
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	st, ok := derefStruct(t)
	if !ok {
		return
	}
	id := typeID(t)
	if id == "" {
		return
	}
	keyed := false
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			keyed = true
			if key, ok := kv.Key.(*ast.Ident); ok {
				fi.FieldRefs = append(fi.FieldRefs, FieldRef{Type: id, Field: key.Name, Pos: key.Pos(), Write: true})
			}
		}
	}
	if !keyed && len(lit.Elts) > 0 {
		for i := 0; i < st.NumFields(); i++ {
			fi.FieldRefs = append(fi.FieldRefs, FieldRef{Type: id, Field: st.Field(i).Name(), Pos: lit.Pos(), Write: true})
		}
	}
}

// recordMutation classifies one assignment/incdec target: a write to a
// package-level variable (directly or through a selector/index/star chain
// rooted at one), and field writes for each selector on the chain.
func (prog *Program) recordMutation(fi *FuncInfo, lhs ast.Expr) {
	info := fi.Pkg.Info
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if selection, ok := info.Selections[x]; ok && selection.Kind() == types.FieldVal {
				prog.recordFieldChain(fi, x, selection, true)
			}
			e = ast.Unparen(x.X)
			continue
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
			continue
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && isPackageVar(v) {
				fi.VarMuts = append(fi.VarMuts, VarMut{
					Var: NormalizePath(v.Pkg().Path()) + "." + v.Name(),
					Pos: lhs.Pos(),
				})
			}
			return
		default:
			return
		}
	}
}

// isPackageVar reports whether v is a package-level variable.
func isPackageVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// recordCall classifies one call site: spawn-API targets, probe emissions,
// and direct output sinks. (The callee edge itself is recorded by the
// ident/selector walk.)
func (prog *Program) recordCall(fi *FuncInfo, call *ast.CallExpr) {
	info := fi.Pkg.Info
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil {
		return
	}
	id := FuncID(callee)

	if spawnFuncs[id] && len(call.Args) >= 2 {
		switch arg := ast.Unparen(call.Args[1]).(type) {
		case *ast.FuncLit:
			// The literal's own FuncInfo is created by the summarize walk;
			// mark it when it appears (its ID is position-derived, so find
			// it afterwards via markSpawnArgs — cheaper: record position).
			fi.spawnLitPos = append(fi.spawnLitPos, arg.Pos())
		case *ast.Ident:
			if fn, ok := info.Uses[arg].(*types.Func); ok {
				if fid := FuncID(fn); fid != "" {
					fi.SpawnTargets = append(fi.SpawnTargets, fid)
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[arg.Sel].(*types.Func); ok {
				if fid := FuncID(fn); fid != "" {
					fi.SpawnTargets = append(fi.SpawnTargets, fid)
				}
			}
		}
	}

	if id == emitProbeID && len(call.Args) >= 2 {
		kind := "?"
		switch arg := ast.Unparen(call.Args[1]).(type) {
		case *ast.SelectorExpr:
			if c, ok := info.Uses[arg.Sel].(*types.Const); ok {
				kind = c.Name()
			}
		case *ast.Ident:
			if c, ok := info.Uses[arg].(*types.Const); ok {
				kind = c.Name()
			}
		}
		fi.ProbeEmits = append(fi.ProbeEmits, ProbeEmit{Kind: kind, Pos: call.Pos()})
	}

	if sink := sinkNameFromFunc(callee); sink != "" {
		fi.SinkCalls = append(fi.SinkCalls, SinkCall{Sink: sink, Pos: call.Pos()})
	}
}

// markSpawnLiterals resolves recorded spawn-argument positions to SpawnArg
// marks on the contained literals, once the whole walk has created them.
func (fi *FuncInfo) markSpawnLiterals(prog *Program) {
	if len(fi.spawnLitPos) == 0 {
		return
	}
	for _, litID := range fi.Literals {
		lit := prog.Funcs[litID]
		for _, pos := range fi.spawnLitPos {
			if lit.Pos == pos {
				lit.SpawnArg = true
			}
		}
	}
}

// Reach computes the set of function IDs reachable from roots over static
// call edges, contained (non-spawned) literals, and — when resolveDyn is
// set — RTA-resolved interface dispatch.
func (prog *Program) Reach(roots []string, resolveDyn bool) map[string]bool {
	seen := make(map[string]bool)
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		fi, ok := prog.Funcs[id]
		if !ok {
			continue
		}
		for _, c := range fi.Calls {
			if !seen[c.ID] {
				queue = append(queue, c.ID)
			}
		}
		for _, litID := range fi.Literals {
			if lit := prog.Funcs[litID]; lit != nil && !lit.SpawnArg && !seen[litID] {
				queue = append(queue, litID)
			}
		}
		if resolveDyn {
			for _, dc := range fi.DynCalls {
				for _, target := range prog.ResolveDyn(dc) {
					if !seen[target] {
						queue = append(queue, target)
					}
				}
			}
		}
	}
	return seen
}

// ResolveDyn returns the IDs of every analyzed method that an interface
// dispatch site could invoke: same method name, identical normalized
// signature.
func (prog *Program) ResolveDyn(dc DynCall) []string {
	var out []string
	for _, tid := range prog.methodIndex[dc.Method] {
		ti := prog.Types[tid]
		if ti.MethodSigs[dc.Method] == dc.Sig {
			out = append(out, ti.Methods[dc.Method])
		}
	}
	return out
}

// Roots returns every event-handler root in the program: function literals
// passed to the spawn APIs and named functions passed by reference, in
// deterministic order.
func (prog *Program) Roots() []string {
	var roots []string
	seen := make(map[string]bool)
	add := func(id string) {
		if id != "" && !seen[id] {
			seen[id] = true
			roots = append(roots, id)
		}
	}
	ids := make([]string, 0, len(prog.Funcs))
	for id := range prog.Funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		for _, t := range prog.Funcs[id].SpawnTargets {
			add(t)
		}
	}
	for _, id := range ids {
		if prog.Funcs[id].SpawnArg {
			add(id)
		}
	}
	sort.Strings(roots)
	return roots
}

// Implements reports whether the named type (by TypeInfo) structurally
// provides every listed method with the given normalized signatures.
func (ti *TypeInfo) Implements(methods map[string]string) bool {
	for name, sig := range methods {
		got, ok := ti.MethodSigs[name]
		if !ok || got != sig {
			return false
		}
	}
	return true
}

// FuncsOfPackage returns the IDs of every function summarized from pkg, in
// deterministic order.
func (prog *Program) FuncsOfPackage(pkg *Package) []string {
	var out []string
	for id, fi := range prog.Funcs {
		if fi.Pkg == pkg {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// DisplayName renders a function ID for diagnostics: the import-path prefix
// is trimmed to the package's base name ("trail.(Driver).flushLog").
func DisplayName(id string) string {
	slash := strings.LastIndex(id, "/")
	if slash < 0 {
		return id
	}
	return id[slash+1:]
}

// taintCallers propagates seeded facts caller-ward: given leaf descriptions
// per directly-offending function, it computes for every function that can
// reach one — through static calls and contained (non-spawned) literals — a
// witness chain from its callee down to the leaf. Seeded functions map to
// their own one-element chain. BFS over sorted worklists keeps chains
// shortest and deterministic.
func (prog *Program) taintCallers(seeds map[string]string) map[string][]string {
	chains := make(map[string][]string, len(seeds))
	if len(seeds) == 0 {
		return chains
	}
	rev := make(map[string][]string)
	for id, fi := range prog.Funcs {
		for _, c := range fi.Calls {
			rev[c.ID] = append(rev[c.ID], id)
		}
		// A literal's taint belongs to the function containing it: the
		// enclosing body runs the literal (spawned literals are their own
		// roots and are excluded).
		for _, lid := range fi.Literals {
			if lit := prog.Funcs[lid]; lit != nil && !lit.SpawnArg {
				rev[lid] = append(rev[lid], id)
			}
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

// renderChain formats a witness chain for a diagnostic, eliding the middle
// of long chains.
func renderChain(chain []string) string {
	if len(chain) > 4 {
		chain = append(append([]string{}, chain[:2]...), "...", chain[len(chain)-1])
	}
	return strings.Join(chain, " -> ")
}

// firstTaintedCall returns the position-first call edge of fi whose callee
// carries a taint chain, or nil.
func firstTaintedCall(fi *FuncInfo, chains map[string][]string) *CallRef {
	var best *CallRef
	for i := range fi.Calls {
		c := &fi.Calls[i]
		if chains[c.ID] == nil {
			continue
		}
		if best == nil || c.Pos < best.Pos {
			best = c
		}
	}
	return best
}

// sinkNameFromFunc is sinkName lifted to a resolved callee, shared between
// the per-package determinism pass and the whole-program summaries.
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
