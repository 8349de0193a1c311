package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oneValueAllowed lists the parameters that every non-test caller passes as
// one constant and that stay parameters anyway, each with its reason.
var oneValueAllowed = map[string]string{
	"internal/geom.Uniform heads":       "a geometry's shape; test drives use 4 heads as well as 2",
	"internal/lint.Load dir":            "tests load the module root and bench/ from the package directory",
	"internal/sim.NewResource capacity": "a kernel primitive; its counting semantics are tested at capacity 2",
	"internal/trace.New capacity":       "bench/ passes its own ring size, and tests pass 0 for an unbounded tracer",
}

// TestNoOneValueParameter: a parameter of an exported package-level function
// in internal/ that every non-test caller, in the module and in bench/,
// passes as the same constant (nil included) is a constant in disguise. The
// test lists each one outside oneValueAllowed, and each allowlisted one that
// no longer has one value. A function with no non-test caller, or one used
// as a value, is not judged; nor is a variadic parameter.
func TestNoOneValueParameter(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and bench/")
	}
	var pkgs []*Package
	for _, dir := range []string{"../..", "../../bench"} {
		ps, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	found := oneValueParams(pkgs)
	for _, name := range found {
		if _, ok := oneValueAllowed[name]; !ok {
			t.Errorf("%s: every non-test caller passes one constant; make it a constant or allowlist it with a reason", name)
		}
	}
	for name := range oneValueAllowed {
		if !slices.Contains(found, name) {
			t.Errorf("%s is allowlisted but no longer has one value; take it off oneValueAllowed", name)
		}
	}
}

// oneValueParams returns "pkg.Func param" for every parameter of an exported
// package-level function under tracklog/internal/ whose non-test callers all
// pass the same constant, sorted.
func oneValueParams(pkgs []*Package) []string {
	type site struct {
		fn    *types.Func
		args  []string // each argument's constant value, "" when not constant
		value bool     // the function is used as a value, not called
	}
	key := func(fn *types.Func) string { return fn.Pkg().Path() + "." + fn.Origin().Name() }
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
					tv := pkg.Info.Types[a]
					switch {
					case tv.Value != nil:
						s.args = append(s.args, tv.Value.ExactString())
					case tv.IsNil():
						s.args = append(s.args, "nil")
					default:
						s.args = append(s.args, "")
					}
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					called[id] = true
				} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					called[sel.Sel] = true
				}
				sites[key(fn)] = append(sites[key(fn)], s)
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && candidate(fn) && !called[id] {
				sites[key(fn)] = append(sites[key(fn)], site{fn: fn, value: true})
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
			out = append(out, fmt.Sprintf("%s %s", strings.TrimPrefix(name, "tracklog/"), sig.Params().At(i).Name()))
		}
	}
	sort.Strings(out)
	return out
}

// candidate reports whether fn is an exported package-level function of a
// package under tracklog/internal/.
func candidate(fn *types.Func) bool {
	if fn.Pkg() == nil || !fn.Exported() || fn.Type().(*types.Signature).Recv() != nil {
		return false
	}
	return strings.HasPrefix(fn.Pkg().Path(), "tracklog/internal/")
}
