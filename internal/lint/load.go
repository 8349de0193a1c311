package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// TypeErrors holds type-check problems. Analyzers still run on a
	// partially checked package, but the driver reports these and exits
	// with a load failure so a broken tree can't silently pass the gate.
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns (relative to dir, "" for
// the current directory), type-checks each matched package from source,
// and resolves every dependency — standard library and in-module alike —
// from compiler export data produced by `go list -export`. Only the Go
// toolchain is required; there is no dependency on go/packages.
//
// Test files are not loaded: the enforced invariants govern the simulated
// stack itself, while tests legitimately use wall-clock timeouts and
// unsorted map iteration in assertions.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("no packages matched %s", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range roots {
		if p.Error != nil && len(p.GoFiles) == 0 {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Name == "" || len(p.GoFiles) == 0 {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		pkg := &Package{ImportPath: p.ImportPath, Dir: p.Dir, Fset: fset}
		for _, gf := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		tpkg, _ := conf.Check(p.ImportPath, fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.Info = info
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
