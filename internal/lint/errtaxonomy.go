package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// ErrTaxonomy enforces the sentinel-error discipline the retry and QoS
// machinery depends on. blockdev defines the device-error taxonomy
// (ErrMediaError, ErrTimeout, ErrDeviceFailed, ErrOverload,
// ErrDeadlineExceeded, ...), and trail/qos/wal/txn/... extend it; every
// layer classifies failures with errors.Is so a wrapped error still trips
// the right retry budget.
//
// Three rules, applied to every sentinel (a package-level `Err*` variable
// of type error declared in a module package):
//
//   - err == ErrX / err != ErrX comparisons must be errors.Is: one
//     fmt.Errorf("%w") anywhere below breaks the == forever.
//   - switch err { case ErrX: } is the same bug in switch clothing.
//   - fmt.Errorf wrapping a sentinel must use %w; %v/%s erase the
//     sentinel's identity and with it the caller's ability to classify.
var ErrTaxonomy = &Analyzer{
	Name: "errtaxonomy",
	Run:  runErrTaxonomy,
}

func runErrTaxonomy(pass *Pass) error {
	if !inModule(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.SwitchStmt:
				checkSentinelSwitch(pass, n)
			case *ast.CallExpr:
				checkSentinelWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

// sentinelOf returns the sentinel error variable an expression names, or
// nil. A sentinel is a package-level var of error type whose name starts
// with "Err", declared in a module package.
func sentinelOf(pass *Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !inModule(NormalizePath(v.Pkg().Path())) {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Implements(v.Type(), errorInterface) {
		return nil
	}
	return v
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}

func checkSentinelCompare(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if s := sentinelOf(pass, side); s != nil {
			other := be.Y
			if side == be.Y {
				other = be.X
			}
			if isNilExpr(pass, other) {
				continue
			}
			pass.Reportf(be.OpPos,
				"%s comparison against sentinel %s.%s breaks once the error is wrapped; use errors.Is(err, %s.%s)",
				be.Op, pkgShort(s), s.Name(), pkgShort(s), s.Name())
			return
		}
	}
}

func checkSentinelSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok || !types.Implements(tv.Type, errorInterface) {
		return
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if s := sentinelOf(pass, e); s != nil {
				pass.Reportf(e.Pos(),
					"switch-case comparison against sentinel %s.%s breaks once the error is wrapped; use errors.Is in an if/else chain",
					pkgShort(s), s.Name())
			}
		}
	}
}

// checkSentinelWrap flags fmt.Errorf calls that pass a sentinel but whose
// format string has no %w verb, which erases the sentinel from the chain.
func checkSentinelWrap(pass *Pass, call *ast.CallExpr) {
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	var sentinel *types.Var
	for _, arg := range call.Args[1:] {
		if s := sentinelOf(pass, arg); s != nil {
			sentinel = s
			break
		}
	}
	if sentinel == nil {
		return
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // non-constant format: can't see the verbs, stay quiet
	}
	if countWrapVerbs(constant.StringVal(tv.Value)) == 0 {
		pass.Reportf(call.Pos(),
			"fmt.Errorf wraps sentinel %s.%s without %%w, so errors.Is stops matching downstream; use %%w (or drop the sentinel from the message)",
			pkgShort(sentinel), sentinel.Name())
	}
}

// countWrapVerbs counts %w verbs in a format string, ignoring %%.
func countWrapVerbs(format string) int {
	n := 0
	for i := 0; i+1 < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		if format[i+1] == '%' {
			i++
			continue
		}
		if format[i+1] == 'w' {
			n++
		}
	}
	return n
}

func pkgShort(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	return v.Pkg().Name()
}
