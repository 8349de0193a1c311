package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func keysOf(secs []Section) []string {
	var out []string
	for _, s := range secs {
		out = append(out, s.Key)
	}
	return out
}

// The catalogue is the paper's 17 evaluation sections and the 5 gate
// sections, each under a unique key that is no other key's prefix (so an
// exact key selects one section).
func TestCatalogueKeysUnique(t *testing.T) {
	if len(Catalogue) != 22 {
		t.Errorf("catalogue has %d sections, want 22", len(Catalogue))
	}
	for i, a := range Catalogue {
		if a.Key == "" || a.Title == "" || a.Run == nil {
			t.Errorf("section %d is incomplete: %+v", i, a)
		}
		for j, b := range Catalogue {
			if i != j && strings.HasPrefix(b.Key, a.Key) {
				t.Errorf("key %q is a prefix of (or equals) key %q", a.Key, b.Key)
			}
		}
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"", Keys()},
		{"fig4", []string{"fig4"}},
		{"fig3", []string{"fig3a", "fig3b"}},
		{"ablate", []string{"ablate-threshold", "ablate-readprio", "ablate-recovery"}},
		{"ext", []string{"ext-multilog", "ext-fsmeta", "ext-raid5", "ext-directlog", "ext-faulttol"}},
		// Catalogue order, whatever the order asked; duplicates collapse.
		{"table2, delta,table2", []string{"delta", "table2"}},
	} {
		secs, err := Select(tc.only)
		if err != nil {
			t.Errorf("Select(%q): %v", tc.only, err)
			continue
		}
		if got := keysOf(secs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q) = %v, want %v", tc.only, got, tc.want)
		}
	}
	for _, only := range []string{"nope", "fig3,nope", "fig3,", "Fig3"} {
		if _, err := Select(only); err == nil {
			t.Errorf("Select(%q) accepted an unknown section", only)
		}
	}
}

// EXPERIMENTS.md's numbers are generated at DefaultSizing: 200 writes per
// point (per process, in both Figure 3 panels), 25 per delta-calibration
// point, the recovery ablation at 64 pending records, TPC-C at the
// experiment defaults. Changing any of these means regenerating that file.
func TestDefaultSizingIsTheDocumentedOne(t *testing.T) {
	want := Sizing{Writes: 200, RecoveryQs: []int{32, 64, 128, 256}, AblateRecoveryQ: 64}
	if got := DefaultSizing(); !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultSizing() = %+v, want %+v", got, want)
	}
	if got := PaperSizing().TPCC; !reflect.DeepEqual(got, PaperScale()) {
		t.Errorf("-paper TPC-C scale = %+v, want PaperScale()", got)
	}
}

// Every experiment runs in the catalogue: an exported function of this
// package returning (*R, error) is an experiment, and catalogue.go or
// gate.go must call it, so cmd/reproduce stays the only runner of what the
// package measures.
func TestEveryExperimentIsCatalogued(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	var experiments []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f == "catalogue.go" || f == "gate.go" {
			ast.Inspect(af, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					named[id.Name] = true
				}
				return true
			})
		}
		for _, d := range af.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			res := fn.Type.Results.List
			if len(res) != 2 {
				continue
			}
			_, ptr := res[0].Type.(*ast.StarExpr)
			if id, ok := res[1].Type.(*ast.Ident); ptr && ok && id.Name == "error" {
				experiments = append(experiments, fn.Name.Name)
			}
		}
	}
	if len(experiments) == 0 {
		t.Fatal("found no experiments")
	}
	for _, name := range experiments {
		if !named[name] {
			t.Errorf("%s is an experiment that neither catalogue.go nor gate.go runs", name)
		}
	}
}
