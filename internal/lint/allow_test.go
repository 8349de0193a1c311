package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestAllowEdgeFixture(t *testing.T) {
	// Placement rules: same line and directly-above apply; a directive
	// separated by a blank line or naming a different analyzer does not.
	// Generated-looking files behave exactly like hand-written ones.
	RunFixture(t, "testdata/src/tracklog/internal/allowedge", VirtualTime, Determinism)
}

// TestStackedDirectivesCoverOneLine pins the one-line-two-analyzers case:
// an above-line directive for one analyzer stacks with a trailing directive
// for another, each silencing only its own analyzer on that line.
func TestStackedDirectivesCoverOneLine(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/tracklog/internal/allowedge")
	if err != nil {
		t.Fatal(err)
	}
	var file string
	var line int
	for _, f := range pkgs[0].Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "same-line half of a stacked pair") {
					pos := pkgs[0].Fset.Position(c.Pos())
					file, line = pos.Filename, pos.Line
				}
			}
		}
	}
	if line == 0 {
		t.Fatal("stacked-pair marker not found in the allowedge fixture")
	}
	diags := []Diagnostic{
		{Pos: token.Position{Filename: file, Line: line}, Analyzer: "virtualtime", Message: "synthetic"},
		{Pos: token.Position{Filename: file, Line: line}, Analyzer: "determinism", Message: "synthetic"},
		{Pos: token.Position{Filename: file, Line: line}, Analyzer: "errtaxonomy", Message: "synthetic"},
	}
	kept := applySuppressions(pkgs, diags)
	names := make([]string, len(kept))
	for i, d := range kept {
		names[i] = d.Analyzer
	}
	if len(kept) != 1 || kept[0].Analyzer != "errtaxonomy" {
		t.Fatalf("stacked directives should drop virtualtime and determinism and keep errtaxonomy; kept %v", names)
	}
}

// FuzzParseAllowDirective pins the parser's invariants on arbitrary
// comment text: it never panics, the malformed/notOurs verdicts are
// mutually exclusive, and a well-formed parse always yields a whitespace-
// free analyzer name and a non-empty reason.
func FuzzParseAllowDirective(f *testing.F) {
	seeds := []string{
		"//lint:allow virtualtime reason",
		"//lint:allow determinism two word reason",
		"//lint:allow",
		"//lint:allow ",
		"//lint:allow  ",
		"//lint:allow sharedstate",
		"//lint:allowed not our directive",
		"//lint:allow\tdeterminism\ttabbed reason",
		"// an ordinary comment",
		"/* a block comment */",
		"",
		"//lint:allow \x00 nul",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, malformed, notOurs := ParseAllowDirective(text)
		if malformed && notOurs {
			t.Fatalf("ParseAllowDirective(%q): malformed and notOurs are mutually exclusive", text)
		}
		if (malformed || notOurs) && (analyzer != "" || reason != "") {
			t.Fatalf("ParseAllowDirective(%q) = (%q, %q, %v, %v): rejected input must carry no fields",
				text, analyzer, reason, malformed, notOurs)
		}
		if !malformed && !notOurs {
			if analyzer == "" || reason == "" {
				t.Fatalf("ParseAllowDirective(%q): well-formed parse with empty analyzer or reason", text)
			}
			if strings.ContainsAny(analyzer, " \t") {
				t.Fatalf("ParseAllowDirective(%q): analyzer %q contains whitespace", text, analyzer)
			}
		}
	})
}
