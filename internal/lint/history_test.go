package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// catches is why each rule is kept: at least one row per rule, each a
// one-hunk edit of the real tree (plus the import a banned package needs)
// that reintroduces a bug the repo shipped or one the rule exists to stop.
// `go test ./...` passes with each edit applied (three runs each) except
// releaseAll's, which the TPC-C goldens catch too, and the stale read's,
// which TestReadNewestOfOverlappingStagedExtents catches; the named analyzer
// must report every one.
var catches = []struct {
	name     string
	analyzer string
	file     string // relative to the module root
	old, new string // old must occur exactly once in file
	imp      string // an import the edit needs, added to the file's import block
	want     string // regexp one of the analyzer's findings must match
}{
	{
		// A wall-clock budget on the branch loop: the report then depends
		// on how fast the host is.
		name: "wall-clock budget", analyzer: "virtualtime",
		file: "internal/crashexplore/explore.go",
		old:  "\tfor env.RunUntil(x.opts.horizon()); env.Paused(); env.RunUntil(x.opts.horizon()) {\n\t\tb := x.fork(at, drives, acked)\n",
		new:  "\tstart := time.Now()\n\tfor env.RunUntil(x.opts.horizon()); env.Paused(); env.RunUntil(x.opts.horizon()) {\n\t\tif time.Since(start) > 10*time.Minute {\n\t\t\tbreak\n\t\t}\n\t\tb := x.fork(at, drives, acked)\n",
		want: `time\.Now reads the wall clock`,
	},
	{
		// A synthesized trace's read/write choice drawn from math/rand's
		// global source: trailsim -pattern stops repeating for a seed.
		name: "global rand in trace synthesis", analyzer: "determinism",
		file: "internal/workload/trace.go",
		old:  "\t\t\tWrite:   rng.Float64() < writeRatio,\n",
		new:  "\t\t\tWrite:   rand.Float64() < writeRatio,\n",
		imp:  "math/rand",
		want: `import of math/rand breaks reproducibility`,
	},
	{
		// The releaseAll that once made TPC-C at concurrency 4 differ from
		// run to run: waiters woken in map order.
		name: "releaseAll in map order", analyzer: "determinism",
		file: "internal/txn/txn.go",
		old:  "\tfor _, ls := range t.locks {\n",
		new:  "\tfor _, ls := range m.locks {\n",
		want: `reaches scheduling call sim\.Event\.Trigger`,
	},
	{
		// The prediction audit's slack histogram printed in map order;
		// every pinned run has a single bucket.
		name: "slack histogram in map order", analyzer: "determinism",
		file: "internal/trace/audit.go",
		old:  "\t\tfor _, k := range keys {\n",
		new:  "\t\tfor k := range r.SlackHist {\n",
		want: `reaches output sink fmt\.Fprintf`,
	},
	{
		// A long run's quantile read off its sparse histogram in map order:
		// the first bucket to carry the running count past the target rank
		// wins, so p99 changes from run to run.
		name: "histogram quantile in map order", analyzer: "determinism",
		file: "internal/telemetry/summary.go",
		old:  "\tmaxB := bucketOf(s.max)\n\tvar cum int64\n\tfor b := 0; b <= maxB; b++ {\n\t\tcum += s.buckets[b]\n",
		new:  "\tvar cum int64\n\tfor b, n := range s.buckets {\n\t\tcum += n\n",
		want: `returns a non-constant result, so the first match in map order wins`,
	},
	{
		// A sector's latent error found by walking the fault plan's latents
		// instead of looking it up: the first match in map order wins. A
		// plan keeps one latent a sector, so the answer is the same and no
		// test sees it; one that let two share a sector would report
		// either, run to run.
		name: "latent lookup as a walk", analyzer: "determinism",
		file: "internal/fault/fault.go",
		old: "\tl := p.latents[lba]\n\tif l == nil || l.repaired || now < l.onset || l.write != write {\n\t\treturn nil\n\t}\n" +
			"\tp.stats.MediaErrors++\n\treturn fmt.Errorf(\"%w (latent)\", blockdev.ErrMediaError)\n",
		new: "\tfor _, l := range p.latents {\n\t\tif l.lba == lba && !l.repaired && now >= l.onset && l.write == write {\n" +
			"\t\t\tp.stats.MediaErrors++\n\t\t\treturn fmt.Errorf(\"%w (latent)\", blockdev.ErrMediaError)\n\t\t}\n\t}\n\treturn nil\n",
		want: `returns a non-constant result, so the first match in map order wins`,
	},
	{
		// A fault plan's device death arrives wrapped, so == misses it and
		// the shard dies only after deadAfter failed probes.
		name: "sentinel compared with ==", analyzer: "errtaxonomy",
		file: "internal/cluster/health.go",
		old:  "\tif errors.Is(err, blockdev.ErrDeviceFailed) {\n",
		new:  "\tif err == blockdev.ErrDeviceFailed {\n",
		want: `== comparison against sentinel blockdev\.ErrDeviceFailed`,
	},
	{
		// The same bug in switch clothing.
		name: "sentinel as a switch case", analyzer: "errtaxonomy",
		file: "internal/cluster/health.go",
		old:  "\tif errors.Is(err, blockdev.ErrDeviceFailed) {\n\t\tc.markDead(sh, at)\n\t\treturn\n\t}\n",
		new:  "\tswitch err {\n\tcase blockdev.ErrDeviceFailed:\n\t\tc.markDead(sh, at)\n\t\treturn\n\t}\n",
		want: `switch-case comparison against sentinel blockdev\.ErrDeviceFailed`,
	},
	{
		// raid.New's size check flattened: errors.Is(err, ErrBadArray)
		// no longer matches what it returns.
		name: "sentinel wrapped with %v", analyzer: "errtaxonomy",
		file: "internal/raid/raid.go",
		old:  `fmt.Errorf("%w: mismatched device sizes", ErrBadArray)`,
		new:  `fmt.Errorf("%v: mismatched device sizes", ErrBadArray)`,
		want: `wraps sentinel raid\.ErrBadArray without %w`,
	},
	{
		// A power cut that also drops the driver's instruments: the rest
		// of the run traces and records nothing.
		name: "tracer dropped at power cut", analyzer: "nilguard",
		file: "internal/trail/driver.go",
		old:  "\td.free = recycled{}\n",
		new:  "\td.free = recycled{}\n\td.tr, d.rec = nil, nil\n",
		want: `handle field tr \(trace\.Tracer\) is assigned outside a Set\*/New\* accessor`,
	},
}

// TestAnalyzersCatchHistory applies each catch to a copy of the module and
// requires exactly the row's analyzer to report it in the edited file.
func TestAnalyzersCatchHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks mutated copies of the module")
	}
	root := copyModule(t, "../..")
	for _, c := range catches {
		t.Run(c.analyzer+"/"+c.name, func(t *testing.T) {
			path := filepath.Join(root, c.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), c.old); n != 1 {
				t.Fatalf("%s: the text this row edits occurs %d times; move the row with the code", c.file, n)
			}
			mutated := strings.Replace(string(src), c.old, c.new, 1)
			if c.imp != "" {
				mutated = strings.Replace(mutated, "import (\n", "import (\n\t\""+c.imp+"\"\n", 1)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			pkgs, err := Load(root, "./"+filepath.Dir(c.file))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				for _, terr := range p.TypeErrors {
					t.Fatalf("mutated %s does not compile: %v", c.file, terr)
				}
			}
			diags, err := Run(pkgs, All())
			if err != nil {
				t.Fatal(err)
			}
			want := regexp.MustCompile(c.want)
			found := false
			for _, d := range diags {
				if d.Analyzer != c.analyzer || d.Pos.Filename != path {
					t.Errorf("unexpected finding: %s", d)
				}
				found = found || want.MatchString(d.Message)
			}
			if !found {
				t.Errorf("%s reported nothing matching %q; got %v", c.analyzer, c.want, diags)
			}
		})
	}
}

// copyModule copies the module's go.mod and non-test Go files under root
// (skipping testdata and nested modules) into a temporary directory.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || nested == nil) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
