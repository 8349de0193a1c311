package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NilGuard keeps instrumentation where setup put it. A nil *trace.Tracer,
// *span.Recorder, telemetry or timeline handle means "disabled", and each
// layer holds the handles it was given for the whole run. A handle field
// assigned anywhere but a Set*/New* accessor — say, a tracer nilled in a
// power cut — silently drops the rest of the run's events and spans, and
// no test notices, because every layer works the same with instruments off.
//
// The handles' own nil-receiver safety is not checked here: an exported
// method that forgets its nil guard panics in every untraced test run.
var NilGuard = &Analyzer{
	Name: "nilguard",
	Doc:  "install instrumentation handles (tracer, recorder, registry, timeline) only through Set*/New* accessors",
	Run:  runNilGuard,
}

// installedHandles names the handle types with instance lifetime: installed
// once at setup and expected to stay put for the whole run. span.Req is
// deliberately absent — it is a request-lifetime handle that layers
// legitimately stash on in-flight request state.
var installedHandles = map[string]bool{
	"tracklog/internal/trace.Tracer":        true,
	"tracklog/internal/span.Recorder":       true,
	"tracklog/internal/telemetry.Registry":  true,
	"tracklog/internal/telemetry.Counter":   true,
	"tracklog/internal/telemetry.Histogram": true,
	"tracklog/internal/timeline.Aggregator": true,
	"tracklog/internal/timeline.Lane":       true,
	"tracklog/internal/timeline.Meter":      true,
	"tracklog/internal/timeline.Mark":       true,
}

func runNilGuard(pass *Pass) error {
	if !inModule(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					checkHandleFieldStore(pass, file, lhs)
				}
			}
			return true
		})
	}
	return nil
}

// handleName returns "pkg.Type" when t is a pointer to an installed handle
// type, else "".
func handleName(t types.Type) string {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	pkg := named.Obj().Pkg()
	if !installedHandles[NormalizePath(pkg.Path())+"."+named.Obj().Name()] {
		return ""
	}
	return pkg.Name() + "." + named.Obj().Name()
}

// checkHandleFieldStore flags `x.field = handle` when field is an
// unexported struct field of handle type and the enclosing function is not
// a Set*/New* accessor (or package-scope initialization).
func checkHandleFieldStore(pass *Pass, file *ast.File, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.IsExported() {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	handle := handleName(selection.Obj().Type())
	if handle == "" {
		return
	}
	fn := enclosingFuncName(file, lhs.Pos())
	if fn == "" || strings.HasPrefix(fn, "Set") || strings.HasPrefix(fn, "New") ||
		strings.HasPrefix(fn, "set") || strings.HasPrefix(fn, "new") {
		return
	}
	pass.Reportf(lhs.Pos(),
		"handle field %s (%s) is assigned outside a Set*/New* accessor; swapping instrumentation mid-run breaks run-to-run determinism",
		sel.Sel.Name, handle)
}
