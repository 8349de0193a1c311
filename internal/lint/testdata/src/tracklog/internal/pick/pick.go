// Package pick is a determinism fixture for the map-range selection rule,
// modelled on the stale read that served the first staged extent a map
// range found: a range that leaves at its first match lets map order decide
// which element wins.
package pick

import (
	"errors"
	"sort"
)

type extent struct {
	lba   int64
	count int
	data  []byte
}

// newest is the stale read: any containing extent may come first.
func newest(staged map[int64]*extent, lba int64) []byte {
	for _, e := range staged { // want `map iteration order is randomized, but this range body returns a non-constant result, so the first match in map order wins`
		if e.lba <= lba && lba < e.lba+int64(e.count) {
			return e.data[(lba-e.lba)*512:]
		}
	}
	return nil
}

var errEmpty = errors.New("empty extent")

// validate reports the first bad extent in map order.
func validate(staged map[int64]*extent) error {
	for _, e := range staged { // want `returns a non-constant result`
		if err := check(e); err != nil {
			return err
		}
	}
	return nil
}

func check(e *extent) error {
	if e.count <= 0 {
		return errEmpty
	}
	return nil
}

// firstOwner keeps whichever matching key map order offers first.
func firstOwner(owners map[string]int, dev int) string {
	found := ""
	for name, d := range owners { // want `breaks out after storing the key or value in found`
		if d == dev {
			found = name
			break
		}
	}
	return found
}

// firstInGroup leaves the map range from a nested loop through its label.
func firstInGroup(groups map[string][]int, want int) (group string) {
outer:
	for name, members := range groups { // want `breaks out after storing the key or value in group`
		for _, m := range members {
			if m == want {
				group = name
				break outer
			}
		}
	}
	return group
}

// contains only asks whether a match exists: any match gives true.
func contains(staged map[int64]*extent, lba int64) bool {
	for _, e := range staged {
		if e.lba <= lba && lba < e.lba+int64(e.count) {
			return true
		}
	}
	return false
}

// allValid returns nil early only when there is nothing to check.
func allValid(staged map[int64]*extent) error {
	for k := range staged {
		if k < 0 {
			return nil
		}
	}
	return nil
}

// anyEmpty breaks at the first match but keeps nothing from it.
func anyEmpty(staged map[int64]*extent) bool {
	empty := false
	for _, e := range staged {
		if e.count == 0 {
			empty = true
			break
		}
	}
	return empty
}

// firstSorted is the fix: collect, sort, then select from the slice.
func firstSorted(owners map[string]int, dev int) string {
	names := make([]string, 0, len(owners))
	for name := range owners {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if owners[name] == dev {
			return name
		}
	}
	return ""
}

// groupsWith collects then sorts; its break leaves only the inner loop.
func groupsWith(groups map[string][]int, want int) []string {
	var names []string
	for name, members := range groups {
		for _, m := range members {
			if m == want {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// sortEach returns only from the comparator literal, not from the range.
func sortEach(groups map[string][]int) {
	for _, members := range groups {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	}
}
