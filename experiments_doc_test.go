package tracklog_test

import (
	"math/big"
	"os"
	"regexp"
	"strings"
	"testing"

	"tracklog/internal/experiments"
)

// TestExperimentsMatchReport holds every measured table cell of
// EXPERIMENTS.md to REPORT.md, the output of `go run ./cmd/reproduce` at the
// default sizing and seed. A table is checked against the catalogue sections
// of the nearest `go run ./cmd/reproduce -only KEYS` command above it; tables
// under a `-paper` command are not (REPORT.md does not run that scale). A
// row is the first line of those sections (or a ";"-separated part of one)
// that begins with the row's first cell. The table's columns not headed
// "paper" are, in order, the values printed after that label: numbers, with
// units and parentheses dropped, or true/false (a cell's yes/no). A cell
// matches when REPORT.md's value, rounded half away from zero to the cell's
// decimals, is the cell's number; an empty cell is not checked.
func TestExperimentsMatchReport(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile("REPORT.md")
	if err != nil {
		t.Fatal(err)
	}
	bodies := reportSections(string(report))
	command := regexp.MustCompile("`go run \\./cmd/reproduce ([^`]*)`")

	var segments []string // the current command's sections, split on ";"
	skip, checked := false, 0
	lines := strings.Split(string(doc), "\n")
	for i := 0; i < len(lines); i++ {
		if m := command.FindStringSubmatch(lines[i]); m != nil {
			segments, skip = nil, false
			args := strings.Fields(m[1])
			if len(args) == 3 && args[2] == "-paper" {
				skip = true
				continue
			}
			if len(args) != 2 || args[0] != "-only" {
				t.Errorf("EXPERIMENTS.md:%d: %q: want -only KEYS, the default sizing and seed of REPORT.md", i+1, m[0])
				continue
			}
			secs, err := experiments.Select(args[1])
			if err != nil {
				t.Errorf("EXPERIMENTS.md:%d: %v", i+1, err)
			}
			for _, s := range secs {
				for _, line := range bodies[s.Title] {
					for _, seg := range strings.Split(line, ";") {
						segments = append(segments, strings.TrimSpace(seg))
					}
				}
			}
			continue
		}
		if !strings.HasPrefix(lines[i], "|") {
			continue
		}
		start := i
		for i < len(lines) && strings.HasPrefix(lines[i], "|") {
			i++
		}
		if skip {
			continue
		}
		if segments == nil {
			t.Errorf("EXPERIMENTS.md:%d: a table under no `go run ./cmd/reproduce -only KEYS` command", start+1)
			continue
		}
		header := tableCells(lines[start])
		for r := start + 2; r < i; r++ {
			cells := tableCells(lines[r])
			label := plainCell(cells[0])
			values, ok := reportValues(segments, label)
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: no REPORT.md line begins with %q", r+1, label)
				continue
			}
			k := 0
			for c := 1; c < len(cells) && c < len(header); c++ {
				if strings.Contains(strings.ToLower(header[c]), "paper") {
					continue
				}
				k++
				cell := plainCell(cells[c])
				if cell == "" {
					continue
				}
				checked++
				if k > len(values) {
					t.Errorf("EXPERIMENTS.md:%d: %s %q: REPORT.md prints only %d values after %q", r+1, header[c], cell, len(values), label)
				} else if got, want, ok := cellMatches(cell, values[k-1]); !ok {
					t.Errorf("EXPERIMENTS.md:%d: %s of %q is %s; REPORT.md prints %s", r+1, header[c], label, want, got)
				}
			}
		}
	}
	if checked < 100 {
		t.Errorf("only %d cells checked; the parser lost the tables", checked)
	}
}

// reportSections maps each "## Title" of REPORT.md to the lines of its
// fenced block.
func reportSections(report string) map[string][]string {
	out := make(map[string][]string)
	var title string
	fenced := false
	for _, line := range strings.Split(report, "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			title = line[3:]
		case line == "```":
			fenced = !fenced
		case fenced:
			out[title] = append(out[title], line)
		}
	}
	return out
}

func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i := range cells {
		cells[i] = strings.TrimSpace(cells[i])
	}
	return cells
}

// plainCell drops a cell's markdown emphasis and code marks.
func plainCell(c string) string {
	return strings.TrimSpace(strings.NewReplacer("**", "", "`", "").Replace(c))
}

var reportNumber = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?$`)

// reportValues returns the values printed after label on the first segment
// that begins with it: label ends at the segment's end, a space, a colon or
// a parenthesis.
func reportValues(segments []string, label string) ([]string, bool) {
	for _, seg := range segments {
		if len(seg) < len(label) || !strings.EqualFold(seg[:len(label)], label) {
			continue
		}
		rest := seg[len(label):]
		if rest != "" && !strings.ContainsRune(" :(", rune(rest[0])) {
			continue
		}
		var values []string
		for _, f := range strings.Fields(rest) {
			f = strings.TrimRight(strings.Trim(f, "():;,~<>"), "%x")
			if f == "true" || f == "false" || reportNumber.MatchString(f) {
				values = append(values, f)
			}
		}
		return values, true
	}
	return nil, false
}

var cellNumber = regexp.MustCompile(`-?[0-9][0-9,]*(\.[0-9]+)?`)

// cellMatches compares a cell with the REPORT.md value in its place and
// returns both as the cell writes them.
func cellMatches(cell, value string) (got, want string, ok bool) {
	switch strings.ToLower(cell) {
	case "yes":
		return value, "true", value == "true"
	case "no":
		return value, "false", value == "false"
	}
	want = strings.ReplaceAll(cellNumber.FindString(cell), ",", "")
	if want == "" {
		return value, cell, false
	}
	r, ok := new(big.Rat).SetString(value)
	if !ok {
		return value, want, false
	}
	decimals := 0
	if i := strings.IndexByte(want, '.'); i >= 0 {
		decimals = len(want) - i - 1
	}
	got = r.FloatString(decimals)
	return got, want, got == want
}
