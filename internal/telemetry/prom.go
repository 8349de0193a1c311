package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition. This file is the single place in the module
// that knows the text format — name sanitization, HELP escaping, label
// escaping, value formatting — and holds its only writer (WriteProm) and
// parser (ParseProm); CI greps that no other package defines either.

// PromName maps an internal metric name onto the Prometheus identifier
// charset [a-zA-Z0-9_]; every other rune becomes '_'.
func PromName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// CounterName builds the conventional exported name of a counter: Prefix +
// sanitized name + "_total" unless the sanitized name already carries the
// suffix.
func CounterName(name string) string {
	n := Prefix + PromName(name)
	if !strings.HasSuffix(n, "_total") {
		n += "_total"
	}
	return n
}

// FormatValue renders a sample value in shortest exact form, so the
// Prometheus and timeline exports agree byte-for-byte.
func FormatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeHelp escapes a HELP string per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelSig renders a label set as `{k="v",...}` (empty string for no
// labels). Used both for series identity and for exposition.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// seriesKey is the registry identity of a series.
func seriesKey(name string, labels []Label) string { return name + labelSig(labels) }

// WriteProm writes every registered series in Prometheus text exposition
// format, in sorted (name, labels) order with one HELP/TYPE header per
// metric name. Output is byte-deterministic for deterministic inputs.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevName := ""
	for _, m := range r.sorted() {
		if m.name != prevName {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.name, escapeHelp(m.help), m.name, m.typ)
			prevName = m.name
		}
		if m.typ == typeHistogram {
			writePromHistogram(bw, m)
			continue
		}
		fmt.Fprintf(bw, "%s%s %s\n", m.name, labelSig(m.labels), FormatValue(m.value()))
	}
	return bw.Flush()
}

// writePromHistogram renders one histogram series: cumulative _bucket
// samples (le label appended after the series labels), then _sum and
// _count.
func writePromHistogram(w io.Writer, m *metric) {
	h := m.hist
	withLE := func(le string) string {
		ls := make([]Label, 0, len(m.labels)+1)
		ls = append(ls, m.labels...)
		ls = append(ls, Label{Key: "le", Value: le})
		return labelSig(ls)
	}
	bounds, cum := h.Buckets()
	for i, b := range bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, withLE(FormatValue(b)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, withLE("+Inf"), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelSig(m.labels), FormatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelSig(m.labels), h.Count())
}

// ParseProm parses Prometheus text exposition format (as written by
// WriteProm) back into a key→value map, for round-trip tests and tooling.
// Comment and blank lines are skipped. Labeled samples are supported: the
// map key is the sample name including its rendered label block, verbatim
// (e.g. `tracklog_disk_reads_total{disk="log0"}`). Duplicate keys are an
// error.
func ParseProm(r io.Reader) (map[string]float64, error) {
	vals := make(map[string]float64)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, val, ok := splitPromSample(text)
		if !ok {
			return nil, fmt.Errorf("prom line %d: no value in %q", line, text)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("prom line %d: %v", line, err)
		}
		if _, dup := vals[name]; dup {
			return nil, fmt.Errorf("prom line %d: duplicate metric %q", line, name)
		}
		vals[name] = f
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom line %d: %w", line+1, err)
	}
	return vals, nil
}

// splitPromSample splits one sample line into its key (name plus optional
// label block) and value text. The label scan is quote-aware so label
// values containing '}' or escaped quotes split correctly.
func splitPromSample(text string) (key, val string, ok bool) {
	brace := strings.IndexByte(text, '{')
	space := strings.IndexByte(text, ' ')
	if brace < 0 || (space >= 0 && space < brace) {
		key, val, ok = strings.Cut(text, " ")
		return key, val, ok
	}
	inQuote, escaped := false, false
	for j := brace + 1; j < len(text); j++ {
		c := text[j]
		switch {
		case escaped:
			escaped = false
		case c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return text[:j+1], strings.TrimSpace(text[j+1:]), true
		}
	}
	return "", "", false
}
