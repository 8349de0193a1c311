package experiments

import (
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

// The catalogue is the paper's 16 evaluation sections and the 5 gate
// sections, each under a unique key that is no other key's prefix (so an
// exact key selects one section).
func TestCatalogueKeysUnique(t *testing.T) {
	if len(Catalogue) != 21 {
		t.Errorf("catalogue has %d sections, want 21", len(Catalogue))
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
		{"ext", []string{"ext-multilog", "ext-fsmeta", "ext-raid5", "ext-directlog"}},
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
