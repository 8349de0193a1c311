// Package lint is a custom static-analysis suite enforcing the invariants
// the whole reproduction rests on and that no off-the-shelf linter checks:
//
//   - virtualtime: all timing in simulated-path packages flows through the
//     simulator's virtual clock. A single stray time.Now silently breaks
//     the microsecond-exact rotational model the head-position prediction
//     depends on.
//   - determinism: all output is byte-deterministic. math/rand is banned
//     outside internal/sim's own deterministic generator, and iterating a
//     Go map directly into an output sink (trace/span exporters, JSON/CSV
//     writers, fmt printing) is flagged because map order is randomized.
//   - errtaxonomy: device errors flow through the sentinel taxonomy with
//     errors.Is and %w wrapping, so retry/QoS budgets keep firing after a
//     layer wraps an error.
//   - nilguard: the nil-is-disabled contract of trace.Tracer, span.Recorder
//     and span.Req — every exported method nil-receiver safe, handles only
//     installed through Set*/New* accessors, never dereferenced.
//
// The suite mirrors the golang.org/x/tools/go/analysis API shape (Analyzer,
// Pass, Diagnostic, analysistest-style fixtures) but is built purely on the
// standard library: packages are enumerated with `go list -deps -export`
// and dependencies are imported from compiler export data, so the checker
// needs nothing beyond the Go toolchain itself.
//
// False positives are suppressed in source with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory; a
// suppression without one is itself reported (analyzer "lintdirective").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. It must be a lowercase identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error

	// NeedWholeProgram marks analyzers whose findings assert the *absence*
	// of something in a call-graph closure (a field never encoded, a probe
	// never emitted). On a partial program — go vet's one-unit-at-a-time
	// view — the closure is truncated at package boundaries and absence
	// becomes a false positive, so unit mode skips these; run trailcheck
	// standalone over ./... for the full suite. Analyzers that only *trace*
	// reachability (virtualtime, determinism, sharedstate) merely
	// under-report on a partial graph and stay enabled everywhere.
	NeedWholeProgram bool
}

// All returns the full trailcheck suite in stable order: the four
// per-package passes of PR 5, then the whole-program analyzers built on the
// call-graph engine (callgraph.go).
func All() []*Analyzer {
	return []*Analyzer{VirtualTime, Determinism, ErrTaxonomy, NilGuard, SnapshotGuard, SharedState, ProbeGuard}
}

// ByName resolves a comma-separated analyzer list ("virtualtime,nilguard").
// Unknown names, duplicates, and an effectively empty list are errors.
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	picked := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if picked[n] {
			return nil, fmt.Errorf("duplicate analyzer %q", n)
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				picked[n] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty analyzer list")
	}
	return out, nil
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the package's invariant path: the import path with any
	// ".../testdata/src/" prefix stripped, so analysistest fixtures are
	// matched against the same per-package configuration (simulated-path
	// sets, home packages) as the real tree.
	Path string

	// Prog is the whole-program view over every package of this Run. The
	// whole-program analyzers (snapshotguard, sharedstate, probeguard) and
	// the interprocedural halves of virtualtime/determinism resolve
	// cross-function facts through it; per-package analyzers may ignore it.
	// Each analyzer still runs once per package and must only report
	// diagnostics anchored in that package.
	Prog *Program

	// CurPkg is the *Package this pass inspects (the same object Prog's
	// summaries point at via FuncInfo.Pkg).
	CurPkg *Package

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

// Run applies each analyzer to each package, filters //lint:allow
// suppressions, and returns the surviving diagnostics in deterministic
// order (file, line, column, analyzer, message).
//
// Before the per-package passes run, the whole tree is linked into one
// Program (call graph, method sets, field/var summaries) shared by every
// pass via Pass.Prog, so analyzers can resolve facts across package
// boundaries. Suppressions are likewise collected across every package
// first: a whole-program finding is anchored at a source position that may
// be suppressed in a different package than the one naming it.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := BuildProgram(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     NormalizePath(pkg.ImportPath),
				Prog:     prog,
				CurPkg:   pkg,
				diags:    &all,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	all = applySuppressions(pkgs, all)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all, nil
}

const allowPrefix = "//lint:allow"

// ParseAllowDirective parses one comment's text as a //lint:allow
// directive. notOurs is true when the comment is not a directive at all
// (ordinary comments, //lint:allowed). A directive with a missing analyzer
// or reason parses with malformed=true; otherwise analyzer and reason carry
// the parsed fields. The analyzer name is NOT validated against the suite
// here — the caller decides what names it knows.
func ParseAllowDirective(text string) (analyzer, reason string, malformed, notOurs bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return "", "", false, true
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return "", "", false, true // e.g. //lint:allowed — not our directive
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", true, false
	}
	return fields[0], strings.Join(fields[1:], " "), false, false
}

// applySuppressions drops diagnostics covered by a well-formed
// //lint:allow directive on the same line or the line directly above, and
// reports malformed directives (missing analyzer or reason) as
// "lintdirective" findings so escapes stay auditable. Directives from every
// package are collected before filtering: whole-program analyzers anchor
// findings at declarations that may live in another package than the one
// that surfaced them.
func applySuppressions(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// (file, line) -> analyzers suppressed on that line.
	type key struct {
		file string
		line int
	}
	suppressed := make(map[key]map[string]bool)
	var out []Diagnostic

	add := func(file string, line int, analyzer string) {
		k := key{file, line}
		if suppressed[k] == nil {
			suppressed[k] = make(map[string]bool)
		}
		suppressed[k][analyzer] = true
	}

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					analyzer, _, malformed, notOurs := ParseAllowDirective(c.Text)
					if notOurs {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if malformed {
						out = append(out, Diagnostic{
							Pos:      pos,
							Analyzer: "lintdirective",
							Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" (reason is mandatory)",
						})
						continue
					}
					known := false
					for _, a := range All() {
						if a.Name == analyzer {
							known = true
							break
						}
					}
					if !known {
						out = append(out, Diagnostic{
							Pos:      pos,
							Analyzer: "lintdirective",
							Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", analyzer),
						})
						continue
					}
					// Suppress the directive's own line and the line below,
					// so both trailing-comment and comment-above styles
					// work.
					add(pos.Filename, pos.Line, analyzer)
					add(pos.Filename, pos.Line+1, analyzer)
				}
			}
		}
	}

	for _, d := range diags {
		if s := suppressed[key{d.Pos.Filename, d.Pos.Line}]; s != nil && s[d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// allowedAt reports whether a well-formed //lint:allow directive for the
// named analyzer covers (file, line) anywhere in the program. The
// interprocedural passes use it to decide whether a sanctioned use site
// should seed taint propagation.
func (prog *Program) allowedAt(analyzer, file string, line int) bool {
	prog.buildAllowIndex()
	return prog.allowIndex[allowKey{file, line, analyzer}]
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

func (prog *Program) buildAllowIndex() {
	if prog.allowIndex != nil {
		return
	}
	prog.allowIndex = make(map[allowKey]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					analyzer, _, malformed, notOurs := ParseAllowDirective(c.Text)
					if notOurs || malformed {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					prog.allowIndex[allowKey{pos.Filename, pos.Line, analyzer}] = true
					prog.allowIndex[allowKey{pos.Filename, pos.Line + 1, analyzer}] = true
				}
			}
		}
	}
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

// pathToFuncObj resolves a call expression to the *types.Func it invokes,
// or nil for non-function calls (conversions, builtins, indirect calls).
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}
