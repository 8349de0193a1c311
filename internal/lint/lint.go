// Package lint is a custom static-analysis suite enforcing the invariants
// the whole reproduction rests on and that no off-the-shelf linter checks:
//
//   - virtualtime: all timing flows through the simulator's virtual clock.
//     A single stray time.Now silently breaks the microsecond-exact
//     rotational model the head-position prediction depends on.
//   - determinism: all output is byte-deterministic. math/rand is banned
//     outside internal/sim's own deterministic generator, and a Go map
//     range whose body calls an output sink or a kernel scheduling call,
//     or keeps the first match it finds, is flagged because map order is
//     randomized.
//   - errtaxonomy: device errors flow through the sentinel taxonomy with
//     errors.Is and %w wrapping, so retry/QoS budgets keep firing after a
//     layer wraps an error.
//   - nilguard: instrumentation handles (tracer, recorder, registry,
//     timeline) are installed only through Set*/New* accessors, so no run
//     swaps them mid-flight.
//   - ownership: each concept the repo has one of (the rig, the retry loop,
//     the acknowledged-write audit, each artefact format, run analysis)
//     stays in the package that owns it.
//
// Each rule is kept because a small mutation of the real tree that
// `go test ./...` does not notice makes it fire (TestAnalyzersCatchHistory).
// There is no suppression directive: a finding is fixed, not silenced.
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape (Analyzer,
// Pass, Diagnostic, analysistest-style fixtures) but is built purely on the
// standard library: packages are enumerated with `go list -deps -export`
// and dependencies are imported from compiler export data, so the checker
// needs nothing beyond the Go toolchain itself.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a lowercase
	// identifier.
	Name string

	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{VirtualTime, Determinism, ErrTaxonomy, NilGuard, Ownership}
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	// Path is the package's invariant path: the import path with any
	// ".../testdata/src/" prefix stripped, so analysistest fixtures are
	// matched against the same per-package configuration as the real tree.
	Path string

	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// NormalizePath strips any ".../testdata/src/" prefix from an import path,
// mapping fixture packages onto the invariant configuration of the package
// they mimic. Real packages never contain the marker, so this is the
// identity for the production tree.
func NormalizePath(importPath string) string {
	const marker = "/testdata/src/"
	if i := strings.LastIndex(importPath, marker); i >= 0 {
		return importPath[i+len(marker):]
	}
	return importPath
}

// inModule reports whether a normalized import path belongs to this module,
// the scope of every analyzer.
func inModule(path string) bool {
	return path == "tracklog" || strings.HasPrefix(path, "tracklog/")
}

// Run applies each analyzer to each package and returns the diagnostics in
// deterministic order (file, line, column, analyzer, message). No pass
// reads beyond its own package, so a package's findings do not depend on
// which other packages are loaded with it.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Info:     pkg.Info,
				Path:     NormalizePath(pkg.ImportPath),
				diags:    &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	slices.SortFunc(all, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	return all, nil
}

// enclosingFuncName returns the name of the innermost function declaration
// containing pos ("" when pos is not inside any FuncDecl, e.g. a package
// var initializer). Methods report their bare name, not the receiver.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	name := ""
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Pos() <= pos && pos <= fd.End() {
			name = fd.Name.Name
		}
	}
	return name
}

// calleeOf resolves a call expression to the *types.Func it invokes, or nil
// for non-function calls (conversions, builtins, calls of function values).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
