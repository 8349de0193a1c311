package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// Ownership keeps each concept the repo has one of in the package that owns
// it: the rig, the wait-and-retry loop, the acknowledged-write audit, each
// artefact format's reader and writer, run analysis and span aggregation.
// Each row of ownershipRules names what is restricted, where it may appear,
// and why. The rows match types, not text, so an alias, a method value or a
// wrapped line does not slip past them.
var Ownership = &Analyzer{
	Name: "ownership",
	Run:  runOwnership,
}

// An ownershipRule restricts one construct to the packages that own it.
type ownershipRule struct {
	what   string
	owners []string // module-relative packages, with their subpackages; bench/ is "bench"
	why    string
	match  func(pass *Pass, n ast.Node) bool
}

var ownershipRules = []ownershipRule{
	{
		what:   "a use of trail.Format, NewDriver, NewDriverMulti or RecoverLogs",
		owners: []string{"internal/rig", "internal/trail", "bench"},
		why:    "hand-built Trail rig; describe it as a rig.Config and build it through internal/rig",
		match: uses("internal/trail.Format", "internal/trail.NewDriver", "internal/trail.NewDriverMulti",
			"internal/trail.RecoverLogs"),
	},
	{
		what:   "a use of sched.Request.Done",
		owners: []string{"internal/sched"},
		why:    "submit the request and call sched.Queue.Serve, which owns the retry, deadline and span policy",
		match:  uses("internal/sched.Request.Done"),
	},
	{
		what:   "a workload.Load.OnAck set to anything but a workload.Ledger's Record",
		owners: []string{"internal/workload"},
		why:    "a hand-written acknowledged-write audit; set OnAck to a Ledger's Record and read back with Ledger.ReadBack",
		match:  setsOnAck,
	},
	{
		what:   "a stored *sim.Proc (struct field, package variable, or slice, array, map or chan element)",
		owners: []string{"internal/sim"},
		why:    "the kernel reuses a process's record once it returns, so keep an Event the process triggers instead",
		match:  storesProc,
	},
	{
		what:  "a disk.Disk.Params read in package trail outside format.go and NewDriverMulti",
		why:   "predict through the log disk's headModel, which NewDriverMulti builds from the datasheet once",
		match: trailParamsRead,
	},
	{
		what:  "a Snapshot or Restore method",
		why:   "a checkpoint format; a crash branch forks by disk.Disk.Clone and fingerprints media with Disk.Digest",
		match: declares(true, "Snapshot", "Restore"),
	},
	{
		what:   "a WriteProm or ParseProm declaration",
		owners: []string{"internal/telemetry"},
		why:    "a second Prometheus writer or parser; render through telemetry.Registry.WriteProm and read with telemetry.ParseProm",
		match:  declares(false, "WriteProm", "ParseProm"),
	},
	{
		what:   "a trace-event or span-dump JSON tag",
		owners: []string{"internal/trace", "internal/span"},
		why:    "a second schema; read trace.json with trace.ReadChrome, spans.json with span.ReadJSON, a run directory with rig.ReadDir",
		match:  jsonTagged("traceEvents", "displayTimeUnit", "ph", "phase", "spans", "requests"),
	},
	{
		what:   "a use of span.Analyze, span.ExplainTail or trace.AuditEvents",
		owners: []string{"cmd/rundiff", "internal/span", "internal/trace"},
		why:    "a run's span budget, tail and prediction audit are read from its directory by rundiff DIR, not printed by the program that ran it",
		match:  uses("internal/span.Analyze", "internal/span.ExplainTail", "internal/trace.AuditEvents"),
	},
	{
		what:   "a range over a Spans field",
		owners: []string{"internal/span", "bench"},
		why:    "a second span aggregation; take requests apart with span.Analyze, whose budget rundiff DIR prints",
		match:  rangesSpans,
	},
	{
		what:  "an import outside the standard library in internal/telemetry",
		why:   "internal/telemetry imports only the standard library, so every layer can depend on it",
		match: telemetryImport,
	},
}

func runOwnership(pass *Pass) error {
	rel, ok := strings.CutPrefix(pass.Path+"/", "tracklog/")
	if !ok {
		return nil
	}
	for _, r := range ownershipRules {
		if slices.ContainsFunc(r.owners, func(o string) bool { return strings.HasPrefix(rel, o+"/") }) {
			continue
		}
		where := ""
		if len(r.owners) > 0 {
			where = " outside " + strings.Join(r.owners, ", ")
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if n != nil && r.match(pass, n) {
					pass.Reportf(n.Pos(), "%s%s: %s", r.what, where, r.why)
				}
				return true
			})
		}
	}
	return nil
}

// uses matches an identifier that refers to one of the named objects,
// called or not.
func uses(names ...string) func(*Pass, ast.Node) bool {
	return func(pass *Pass, n ast.Node) bool {
		return slices.ContainsFunc(names, func(name string) bool { return refers(pass, n, name) })
	}
}

// refers reports whether n is an identifier that refers to the named object.
func refers(pass *Pass, n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && strings.HasSuffix(name, "."+id.Name) && refersTo(pass.Info.Uses[id], name)
}

// refersTo reports whether obj is the module object named like
// "internal/trail.Format", "internal/disk.Disk.Params" or
// "internal/sched.Request.Done".
func refersTo(obj types.Object, name string) bool {
	pkg, member, _ := strings.Cut(name, ".")
	if obj == nil || obj.Pkg() == nil || NormalizePath(obj.Pkg().Path()) != "tracklog/"+pkg {
		return false
	}
	top, field, _ := strings.Cut(member, ".")
	want := obj.Pkg().Scope().Lookup(top)
	if want != nil && field != "" {
		want, _, _ = types.LookupFieldOrMethod(want.Type(), true, obj.Pkg(), field)
	}
	return want == obj
}

// setsOnAck matches an assignment or a composite-literal entry that stores
// in workload.Load.OnAck anything but a workload.Ledger's Record.
func setsOnAck(pass *Pass, n ast.Node) bool {
	stores := func(target, value ast.Expr) bool {
		if sel, ok := ast.Unparen(target).(*ast.SelectorExpr); ok {
			target = sel.Sel
		}
		rec, ok := ast.Unparen(value).(*ast.SelectorExpr)
		return refers(pass, target, "internal/workload.Load.OnAck") &&
			!(ok && refers(pass, rec.Sel, "internal/workload.Ledger.Record"))
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if i < len(n.Rhs) && stores(lhs, n.Rhs[i]) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		return stores(n.Key, n.Value)
	}
	return false
}

// storesProc matches a struct field or package variable of type *sim.Proc,
// and a slice, array, map or chan type that holds one.
func storesProc(pass *Pass, n ast.Node) bool {
	isProc := func(t types.Type) bool {
		p, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := types.Unalias(p.Elem()).(*types.Named)
		return ok && refersTo(named.Obj(), "internal/sim.Proc")
	}
	switch n := n.(type) {
	case *ast.Ident:
		v, ok := pass.Info.Defs[n].(*types.Var)
		return ok && isProc(v.Type()) && (v.IsField() || v.Parent() == v.Pkg().Scope())
	case *ast.ArrayType:
		return isProc(pass.Info.TypeOf(n.Elt))
	case *ast.MapType:
		return isProc(pass.Info.TypeOf(n.Key)) || isProc(pass.Info.TypeOf(n.Value))
	case *ast.ChanType:
		return isProc(pass.Info.TypeOf(n.Value))
	}
	return false
}

// trailParamsRead matches a disk.Disk.Params reference in package trail
// outside format.go, which writes the geometry into the header, and
// NewDriverMulti.
func trailParamsRead(pass *Pass, n ast.Node) bool {
	if pass.Path != "tracklog/internal/trail" || !refers(pass, n, "internal/disk.Disk.Params") {
		return false
	}
	i := slices.IndexFunc(pass.Files, func(f *ast.File) bool { return f.Pos() <= n.Pos() && n.Pos() < f.End() })
	return filepath.Base(pass.Fset.Position(n.Pos()).Filename) != "format.go" &&
		enclosingFuncName(pass.Files[i], n.Pos()) != "NewDriverMulti"
}

// declares matches a declaration of a function (a method, if method) of
// one of the names.
func declares(method bool, names ...string) func(*Pass, ast.Node) bool {
	return func(_ *Pass, n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		return ok && (!method || fd.Recv != nil) && slices.Contains(names, fd.Name.Name)
	}
}

// jsonTagged matches a struct field whose JSON name is one of names.
func jsonTagged(names ...string) func(*Pass, ast.Node) bool {
	return func(_ *Pass, n ast.Node) bool {
		f, ok := n.(*ast.Field)
		if !ok || f.Tag == nil {
			return false
		}
		tag, _ := strconv.Unquote(f.Tag.Value)
		name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
		return slices.Contains(names, name)
	}
}

// rangesSpans matches a range statement whose range expression reads a
// field named Spans, outside any function or composite literal in it.
func rangesSpans(pass *Pass, n ast.Node) bool {
	rng, ok := n.(*ast.RangeStmt)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(rng.X, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.CompositeLit:
			return false
		case *ast.SelectorExpr:
			v, ok := pass.Info.Uses[m.Sel].(*types.Var)
			found = found || ok && v.IsField() && v.Name() == "Spans"
		}
		return !found
	})
	return found
}

// telemetryImport matches an import of a module package in
// internal/telemetry; the module requires nothing outside the standard
// library.
func telemetryImport(pass *Pass, n ast.Node) bool {
	imp, ok := n.(*ast.ImportSpec)
	if !ok || pass.Path != "tracklog/internal/telemetry" {
		return false
	}
	path, _ := strconv.Unquote(imp.Path.Value)
	return inModule(NormalizePath(path))
}
