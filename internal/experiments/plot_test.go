package experiments

import (
	"strings"
	"testing"
)

func TestAsciiPlot(t *testing.T) {
	out := AsciiPlot("demo", "x", "y", []Series{
		{Name: "a", Points: [][2]float64{{1, 1}, {2, 4}, {3, 9}}},
		{Name: "b", Points: [][2]float64{{1, 2}, {2, 3}, {3, 5}}},
	}, 40, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "* = a") || !strings.Contains(out, "o = b") {
		t.Errorf("plot missing elements:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("no marks plotted")
	}
	// Degenerate inputs do not panic.
	_ = AsciiPlot("empty", "x", "y", nil, 0, 0)
	_ = AsciiPlot("single", "x", "y", []Series{{Name: "s", Points: [][2]float64{{5, 5}}}}, 40, 10)
}

// AsciiPlot must render identically for identical input: the experiment
// harness diffs plots across runs.
func TestAsciiPlotDeterministic(t *testing.T) {
	series := []Series{
		{Name: "a", Points: [][2]float64{{1, 2}, {2, 4}, {4, 8}}},
		{Name: "b", Points: [][2]float64{{1, 3}, {2, 2}, {4, 1}}},
	}
	first := AsciiPlot("t", "x", "y", series, 40, 10)
	for i := 0; i < 5; i++ {
		if got := AsciiPlot("t", "x", "y", series, 40, 10); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Shape sanity: title, both axis labels, a legend line per series.
	for _, frag := range []string{"t\n", "(x)", "y", "* = a", "o = b"} {
		if !strings.Contains(first, frag) {
			t.Errorf("plot missing %q:\n%s", frag, first)
		}
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	// No points and single-point series must not panic or divide by zero.
	_ = AsciiPlot("empty", "x", "y", nil, 40, 10)
	_ = AsciiPlot("one", "x", "y", []Series{{Name: "s", Points: [][2]float64{{5, 5}}}}, 40, 10)
}

// Empty input must render finite axis labels, not "+Inf".
func TestAsciiPlotEmptySeriesLabels(t *testing.T) {
	out := AsciiPlot("empty", "x", "y", nil, 40, 10)
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("empty plot leaks non-finite labels:\n%s", out)
	}
	out = AsciiPlot("empty", "x", "y", []Series{{Name: "s"}}, 40, 10)
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("empty-series plot leaks non-finite labels:\n%s", out)
	}
}

// Degenerate width/height fall back to sane defaults rather than panicking
// on negative strings.Repeat counts.
func TestAsciiPlotTinyDimensions(t *testing.T) {
	pts := []Series{{Name: "s", Points: [][2]float64{{0, 1}, {1, 2}}}}
	for _, wh := range [][2]int{{0, 0}, {5, 2}, {19, 4}, {-3, -3}} {
		out := AsciiPlot("t", "a-very-long-x-label", "a-very-long-y-label", pts, wh[0], wh[1])
		if !strings.Contains(out, "t\n") {
			t.Fatalf("width=%d height=%d: missing title:\n%s", wh[0], wh[1], out)
		}
	}
}
