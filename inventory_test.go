package tracklog_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesTree holds DESIGN.md §2 to the tree: the table
// cells that name a package or a command, `internal/x` or `cmd/x`, are
// exactly the directories under internal/ that hold a non-test Go file,
// testdata aside, and the directories under cmd/.
func TestDesignInventoryMatchesTree(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start := strings.Index(text, "\n## 2.")
	end := strings.Index(text[start+1:], "\n## ")
	if start < 0 || end < 0 {
		t.Fatal("DESIGN.md has no §2")
	}
	cellPath := regexp.MustCompile("^`((?:internal|cmd)/[a-z0-9/]+)`$")
	var listed []string
	for _, line := range strings.Split(text[start:start+1+end], "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, cell := range strings.Split(line, "|") {
			if m := cellPath.FindStringSubmatch(strings.TrimSpace(cell)); m != nil {
				listed = append(listed, m[1])
			}
		}
	}

	var tree []string
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			tree = append(tree, filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range cmds {
		if d.IsDir() {
			tree = append(tree, "cmd/"+d.Name())
		}
	}

	slices.Sort(tree)
	tree = slices.Compact(tree)
	slices.Sort(listed)
	for _, p := range tree {
		if _, found := slices.BinarySearch(listed, p); !found {
			t.Errorf("%s is missing from DESIGN.md §2", p)
		}
	}
	for i, p := range listed {
		if _, found := slices.BinarySearch(tree, p); !found {
			t.Errorf("DESIGN.md §2 lists %s, which the tree does not have", p)
		} else if i > 0 && listed[i-1] == p {
			t.Errorf("DESIGN.md §2 lists %s twice", p)
		}
	}
}
