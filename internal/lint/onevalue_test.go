package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// oneValueAllowed lists the parameters that every non-test caller passes as
// one constant and that stay parameters anyway, each with its reason.
var oneValueAllowed = map[string]string{
	"internal/geom.Uniform heads":              "a geometry's shape; test drives use 4 heads as well as 2",
	"internal/lint.Load dir":                   "tests load the module root and bench/ from the package directory",
	"internal/sim.NewResource capacity":        "a kernel primitive; its counting semantics are tested at capacity 2",
	"internal/trace.New capacity":              "bench/ passes its own ring size, and tests pass 0 for an unbounded tracer",
	"internal/sim.Rand.NURand x":               "the TPC-C specification's NURand(A, x, y) formula",
	"internal/telemetry.Registry.Counter name": "only bench/ passes it",
	"internal/telemetry.Registry.Counter help": "only bench/ passes it",
	"internal/txn.Txn.Delete tag":              "the redo record's table tag: txn serves any table, and TPC-C deletes only from NEW-ORDER",
	"internal/telemetry.Counter.Add n":         "only bench/ passes it",
	"internal/wal.Log.SetTimeline name":        "only bench/ passes it",
}

// oneValueFieldAllowed lists the settings fields that every non-test
// literal and assignment gives one value and that stay fields anyway, each
// with its reason.
var oneValueFieldAllowed = map[string]string{
	"internal/tpcc.Config.Warehouses":               "bench/ sets it by name",
	"internal/workload.MixConfig.Tenants":           "bench/ sets it by name",
	"internal/workload.MixConfig.ReadFraction":      "bench/ sets it by name",
	"internal/workload.MixConfig.Interarrival":      "bench/ sets it by name",
	"internal/workload.MixConfig.ZipfS":             "bench/ sets it by name",
	"internal/workload.MixConfig.InteractiveWeight": "bench/ sets it by name",
	"internal/disk.Params.DriftPPM":                 "the paper's §3.1 drift mechanism; EXPERIMENTS.md reports drift_test.go's result",
	"internal/trail.Config.IdleReposition":          "the paper's §3.1 drift mechanism; EXPERIMENTS.md reports drift_test.go's result",
}

var tree struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadTree type-checks the module and bench/ once for every test that needs
// the whole tree.
func loadTree(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the module and bench/")
	}
	tree.once.Do(func() {
		for _, dir := range []string{"../..", "../../bench"} {
			ps, err := Load(dir, "./...")
			if err != nil {
				tree.err = err
				return
			}
			tree.pkgs = append(tree.pkgs, ps...)
		}
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.pkgs
}

// checkAllowlist fails on each found name outside allowed, and on each
// allowed name that is no longer found.
func checkAllowlist(t *testing.T, found []string, allowed map[string]string, what string) {
	t.Helper()
	for _, name := range found {
		if _, ok := allowed[name]; !ok {
			t.Errorf("%s: %s; make it a constant or allowlist it with a reason", name, what)
		}
	}
	for name := range allowed {
		if !slices.Contains(found, name) {
			t.Errorf("%s is allowlisted but no longer has one value; take it off the allowlist", name)
		}
	}
}

// TestNoOneValueParameter: a parameter of a function or method in internal/
// or cmd/ that every non-test caller, in the module and in bench/, passes as
// the same constant (nil included) is a constant in disguise. The test lists
// each one outside oneValueAllowed, and each allowlisted one that no longer
// has one value. A function with no non-test caller, one used as a value, a
// method that implements an interface method declared in the module, and a
// variadic parameter are not judged.
func TestNoOneValueParameter(t *testing.T) {
	checkAllowlist(t, oneValueParams(loadTree(t)), oneValueAllowed,
		"every non-test caller passes one constant")
}

// TestNoOneValueField: a field of a settings type — an exported struct of
// internal/ that an exported function or method takes as a parameter — that
// every non-test literal and assignment gives one value is a constant in
// disguise. A literal that omits the field gives it the zero value; a
// defaulting assignment (one under an if that tests the same field) and an
// empty literal returned beside an error do not count.
func TestNoOneValueField(t *testing.T) {
	checkAllowlist(t, oneValueFields(loadTree(t)), oneValueFieldAllowed,
		"every non-test literal and assignment gives it one value")
}

// constValue is the canonical text of e's constant value: "0" for any zero
// value (nil, false, "" and an omitted field included), "" when e is not a
// constant.
func constValue(info *types.Info, e ast.Expr) string {
	tv := info.Types[e]
	switch {
	case tv.IsNil():
		return "0"
	case tv.Value == nil:
		return ""
	case tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value),
		tv.Value.Kind() == constant.String && constant.StringVal(tv.Value) == "",
		(tv.Value.Kind() == constant.Int || tv.Value.Kind() == constant.Float) && constant.Sign(tv.Value) == 0:
		return "0"
	}
	return tv.Value.ExactString()
}

// funcName is "pkg.Func" or "pkg.Recv.Method" with the tracklog/ prefix cut.
func funcName(fn *types.Func) string {
	name := fn.Origin().Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if n, ok := deref(recv.Type()).(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(fn.Pkg().Path(), "tracklog/") + "." + name
}

// oneValueParams returns "pkg.Func param" for every judged parameter whose
// non-test callers all pass the same constant, sorted.
func oneValueParams(pkgs []*Package) []string {
	type site struct {
		fn    *types.Func
		args  []string // each argument's constant value, "" when not constant
		value bool     // the function is used as a value, not called
	}
	ifaces := moduleInterfaces(pkgs)
	candidate := func(fn *types.Func) bool {
		return fn.Pkg() != nil && (strings.HasPrefix(fn.Pkg().Path(), "tracklog/internal/") ||
			strings.HasPrefix(fn.Pkg().Path(), "tracklog/cmd/")) && !implementsModuleMethod(fn, ifaces)
	}
	sites := map[string][]site{}
	for _, pkg := range pkgs {
		called := map[*ast.Ident]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || !candidate(fn) {
					return true
				}
				s := site{fn: fn}
				for _, a := range call.Args {
					s.args = append(s.args, constValue(pkg.Info, a))
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					called[id] = true
				} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					called[sel.Sel] = true
				}
				sites[funcName(fn)] = append(sites[funcName(fn)], s)
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && candidate(fn) && !called[id] {
				sites[funcName(fn)] = append(sites[funcName(fn)], site{fn: fn, value: true})
			}
		}
	}
	var out []string
	for name, ss := range sites {
		sig := ss[0].fn.Type().(*types.Signature)
		n := sig.Params().Len()
		if sig.Variadic() {
			n--
		}
	param:
		for i := 0; i < n; i++ {
			for _, s := range ss {
				if s.value || i >= len(s.args) || s.args[i] == "" || s.args[i] != ss[0].args[i] {
					continue param
				}
			}
			out = append(out, fmt.Sprintf("%s %s", name, sig.Params().At(i).Name()))
		}
	}
	sort.Strings(out)
	return out
}

// moduleInterfaces returns the method names of every interface type declared
// at package level in the module.
func moduleInterfaces(pkgs []*Package) [][]string {
	var out [][]string
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				var ms []string
				for i := 0; i < it.NumMethods(); i++ {
					ms = append(ms, it.Method(i).Name())
				}
				out = append(out, ms)
			}
		}
	}
	return out
}

// implementsModuleMethod reports whether fn is an interface method, or a
// method whose receiver type has every method of an interface of ifaces that
// declares a method of fn's name: either may be called dynamically. Method
// sets are matched by name, since a package's own types and the same types
// imported by another package are distinct objects here.
func implementsModuleMethod(fn *types.Func, ifaces [][]string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if types.IsInterface(recv.Type()) {
		return true
	}
	has := map[string]bool{}
	mset := types.NewMethodSet(types.NewPointer(deref(recv.Type())))
	for i := 0; i < mset.Len(); i++ {
		has[mset.At(i).Obj().Name()] = true
	}
	for _, ms := range ifaces {
		if !slices.Contains(ms, fn.Name()) {
			continue
		}
		all := true
		for _, m := range ms {
			all = all && has[m]
		}
		if all {
			return true
		}
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// typeKey is "tracklog/pkg.Type" for a named type, "" otherwise. Types are
// compared by name: a package's own types and the same types imported by
// another package are distinct objects here.
func typeKey(t types.Type) string {
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// settingsTypes returns the key of every exported struct type of a package
// under tracklog/internal/ that an exported function or method takes as a
// parameter, by value or by pointer.
func settingsTypes(pkgs []*Package) map[string]bool {
	out := map[string]bool{}
	add := func(sig *types.Signature) {
		for i := 0; i < sig.Params().Len(); i++ {
			t := deref(sig.Params().At(i).Type())
			n, ok := t.(*types.Named)
			if !ok || !n.Obj().Exported() || !strings.HasPrefix(typeKey(n), "tracklog/internal/") {
				continue
			}
			if _, ok := n.Underlying().(*types.Struct); ok {
				out[typeKey(n)] = true
			}
		}
	}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.ImportPath, "tracklog/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					add(obj.Type().(*types.Signature))
				}
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok && obj.Exported() {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() {
							add(m.Type().(*types.Signature))
						}
					}
				}
			}
		}
	}
	return out
}

// oneValueFields returns "pkg.Type.Field" for every exported field of a
// settings type that all non-test literals, zero-value declarations and
// assignments give one value, sorted.
func oneValueFields(pkgs []*Package) []string {
	settings := settingsTypes(pkgs)
	values := map[string]map[string]bool{}
	set := func(field, v string) {
		if values[field] == nil {
			values[field] = map[string]bool{}
		}
		values[field][v] = true
	}
	// zero gives every exported field of t the zero value.
	zero := func(t types.Type, skip func(*types.Var) bool) {
		st := deref(t).Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !skip(f) {
				set(typeKey(t)+"."+f.Name(), "0")
			}
		}
	}
	// fieldOf is the key of the settings field e selects, "" when e selects
	// none.
	fieldOf := func(info *types.Info, e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal || !s.Obj().Exported() {
			return ""
		}
		// The struct that declares the field, through any embedding.
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			t = deref(t).Underlying().(*types.Struct).Field(i).Type()
		}
		if !settings[typeKey(t)] {
			return ""
		}
		return typeKey(t) + "." + s.Obj().Name()
	}
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			// defaults holds the fields an enclosing if tests: assignments to
			// them there are defaulting, not settings.
			var defaults []string
			// errReturns holds the empty literals returned beside an error.
			errReturns := map[*ast.CompositeLit]bool{}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					if n.Init != nil {
						ast.Inspect(n.Init, visit)
					}
					ast.Inspect(n.Cond, visit)
					mark := len(defaults)
					ast.Inspect(n.Cond, func(c ast.Node) bool {
						if e, ok := c.(ast.Expr); ok && fieldOf(info, e) != "" {
							defaults = append(defaults, fieldOf(info, e))
						}
						return true
					})
					ast.Inspect(n.Body, visit)
					defaults = defaults[:mark]
					if n.Else != nil {
						ast.Inspect(n.Else, visit)
					}
					return false
				case *ast.ReturnStmt:
					if len(n.Results) > 1 && !info.Types[n.Results[len(n.Results)-1]].IsNil() {
						for _, r := range n.Results {
							if cl, ok := ast.Unparen(r).(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
								errReturns[cl] = true
							}
						}
					}
				case *ast.ValueSpec:
					if t := info.TypeOf(n.Type); n.Type != nil && len(n.Values) == 0 && settings[typeKey(t)] {
						if _, ptr := t.(*types.Pointer); !ptr {
							zero(t, func(*types.Var) bool { return false })
						}
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if !settings[typeKey(t)] || errReturns[n] {
						return true
					}
					st := deref(t).Underlying().(*types.Struct)
					given := map[*types.Var]bool{}
					for i, elt := range n.Elts {
						fv, val := st.Field(i), elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							fv, _ = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							val = kv.Value
						}
						if fv != nil && fv.Exported() {
							given[fv] = true
							set(typeKey(t)+"."+fv.Name(), constValue(info, val))
						}
					}
					zero(t, func(f *types.Var) bool { return given[f] })
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
							// An element of an array or map field.
							if f := fieldOf(info, ix.X); f != "" {
								set(f, "")
							}
							continue
						}
						f := fieldOf(info, lhs)
						if f == "" || slices.Contains(defaults, f) {
							continue
						}
						if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							set(f, constValue(info, n.Rhs[i]))
						} else {
							set(f, "")
						}
					}
				case *ast.SelectorExpr:
					// A pointer method called on a field may change it.
					if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							if f := fieldOf(info, n.X); f != "" {
								set(f, "")
							}
						}
					}
				case *ast.IncDecStmt:
					if f := fieldOf(info, n.X); f != "" {
						set(f, "")
					}
				case *ast.UnaryExpr:
					if f := fieldOf(info, n.X); n.Op == token.AND && f != "" {
						set(f, "")
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	var out []string
	for f, vs := range values {
		if len(vs) == 1 && !vs[""] {
			out = append(out, strings.TrimPrefix(f, "tracklog/"))
		}
	}
	sort.Strings(out)
	return out
}
