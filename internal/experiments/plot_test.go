package experiments

import (
	"strings"
	"testing"
)

func TestAsciiPlot(t *testing.T) {
	out := AsciiPlot("demo", "x", []Series{
		{Name: "a", Points: [][2]float64{{1, 1}, {2, 4}, {3, 9}}},
		{Name: "b", Points: [][2]float64{{1, 2}, {2, 3}, {3, 5}}},
	})
	if !strings.Contains(out, "demo") || !strings.Contains(out, "* = a") || !strings.Contains(out, "o = b") {
		t.Errorf("plot missing elements:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("no marks plotted")
	}
	// Degenerate inputs do not panic.
	_ = AsciiPlot("empty", "x", nil)
	_ = AsciiPlot("single", "x", []Series{{Name: "s", Points: [][2]float64{{5, 5}}}})
}

// AsciiPlot must render identically for identical input: the experiment
// harness diffs plots across runs.
func TestAsciiPlotDeterministic(t *testing.T) {
	series := []Series{
		{Name: "a", Points: [][2]float64{{1, 2}, {2, 4}, {4, 8}}},
		{Name: "b", Points: [][2]float64{{1, 3}, {2, 2}, {4, 1}}},
	}
	first := AsciiPlot("t", "x", series)
	for i := 0; i < 5; i++ {
		if got := AsciiPlot("t", "x", series); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Shape sanity: title, both axis labels, a legend line per series.
	for _, frag := range []string{"t\n", "(x)", "ms", "* = a", "o = b"} {
		if !strings.Contains(first, frag) {
			t.Errorf("plot missing %q:\n%s", frag, first)
		}
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	// No points and single-point series must not panic or divide by zero.
	_ = AsciiPlot("empty", "x", nil)
	_ = AsciiPlot("one", "x", []Series{{Name: "s", Points: [][2]float64{{5, 5}}}})
}

// Empty input must render finite axis labels, not "+Inf".
func TestAsciiPlotEmptySeriesLabels(t *testing.T) {
	out := AsciiPlot("empty", "x", nil)
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("empty plot leaks non-finite labels:\n%s", out)
	}
	out = AsciiPlot("empty", "x", []Series{{Name: "s"}})
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("empty-series plot leaks non-finite labels:\n%s", out)
	}
}
