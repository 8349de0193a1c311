package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of a plot.
type Series struct {
	Name string
	// Points are (x, y) pairs; x values should be shared across series for
	// sensible output.
	Points [][2]float64
}

// AsciiPlot renders series in milliseconds as a 64x16 ASCII chart, for
// figure-like terminal output of the paper's graphs. X is linear over the
// union of points; Y is linear from zero (or the minimum, if negative values
// occur).
func AsciiPlot(title, xlabel string, series []Series) string {
	const width, height = 64, 16
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := 0.0, math.Inf(-1)
	for _, s := range series {
		for _, pt := range s.Points {
			minX = math.Min(minX, pt[0])
			maxX = math.Max(maxX, pt[0])
			minY = math.Min(minY, pt[1])
			maxY = math.Max(maxY, pt[1])
		}
	}
	// With no points at all the scan leaves the extents infinite; pin them to
	// a unit range so the axis labels render as numbers, not "+Inf".
	if math.IsInf(minX, 1) {
		minX, maxX = 0, 1
	} else if maxX == minX {
		maxX = minX + 1
	}
	if math.IsInf(maxY, -1) || maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*o+x#@%&"
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, pt := range s.Points {
			col := int((pt[0] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((pt[1]-minY)/(maxY-minY)*float64(height-1))
			if row >= 0 && row < height && col >= 0 && col < width {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%10.3g +%s\n", maxY, strings.Repeat("-", width))
	for i, row := range grid {
		label := strings.Repeat(" ", 10)
		if i == height/2 {
			label = fmt.Sprintf("%10s", "ms")
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%10.3g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-10.3g%s%10.3g  (%s)\n", "", minX,
		strings.Repeat(" ", width-20), maxX, xlabel)
	for si, s := range series {
		fmt.Fprintf(&b, "%12c = %s\n", marks[si%len(marks)], s.Name)
	}
	return b.String()
}
