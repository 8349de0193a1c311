// Package sched is a determinism fixture for the map-range → output-sink
// rule. Map iteration order is randomized per run; emitting inside the
// loop produces run-dependent bytes.
package sched

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

func direct(m map[string]int) {
	for k, v := range m { // want `map iteration order is randomized, but this range body reaches output sink fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func nested(w io.Writer, m map[string]map[string]int) {
	for k, inner := range m { // want `reaches output sink fmt\.Fprintf`
		for kk := range inner { // want `reaches output sink fmt\.Fprintf`
			fmt.Fprintf(w, "%s/%s\n", k, kk)
		}
	}
}

func buffered(w *bufio.Writer, m map[int]string) {
	for _, v := range m { // want `reaches output sink Writer\.WriteString`
		w.WriteString(v)
	}
}

func builder(m map[int]string) string {
	var b strings.Builder
	for _, v := range m { // want `reaches output sink Builder\.WriteString`
		b.WriteString(v)
	}
	return b.String()
}

// sorted is the blessed pattern: collect, sort, then range the slice.
func sorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}

// aggregate never reaches a sink: pure reduction over a map is fine.
func aggregate(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
