// Package detind is the helper-mediated determinism fixture: a map-range
// body reaches an output sink only through a helper call, which the call
// graph traces.
package detind

import (
	"fmt"
	"sort"
)

// dump is the helper that hides the sink from the range body.
func dump(k string, v int) {
	fmt.Printf("%s=%d\n", k, v)
}

func emit(m map[string]int) {
	for k, v := range m { // want `map iteration order is randomized, but this range body reaches output sink via helper \(fmt\.Printf\)`
		dump(k, v)
	}
}

// report is one more hop away: the witness chain names the path.
func report(m map[string]int) {
	for k := range m { // want `reaches output sink via helper \(detind\.dump -> fmt\.Printf\)`
		line(k)
	}
}

func line(k string) { dump(k, 0) }

// emitSorted ranges a sorted slice: same helper, no map-order dependence.
func emitSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dump(k, m[k])
	}
}
