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
// `go test ./...` passes with each edit applied (three runs each; one for
// each ownership row) except releaseAll's, which the TPC-C goldens catch
// too; the named analyzer must report every one.
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
	{
		// A log disk formatted by hand next to the rig that formats it.
		name: "hand-wired format", analyzer: "ownership",
		file: "cmd/trailfmt/main.go",
		old:  "\tif err := sys.Start(); err != nil {\n",
		new:  "\tif err := trail.Format(log); err != nil {\n\t\treturn err\n\t}\n\tif err := sys.Start(); err != nil {\n",
		want: `a use of trail\.Format, NewDriver, NewDriverMulti or RecoverLogs outside`,
	},
	{
		// A queued command awaited by hand before the loop that owns its
		// retries and spans sees it.
		name: "hand-written wait", analyzer: "ownership",
		file: "internal/stddisk/stddisk.go",
		old:  "\td.queue.Submit(req)\n",
		new:  "\td.queue.Submit(req)\n\treq.Done.Wait(p)\n",
		want: `a use of sched\.Request\.Done outside internal/sched`,
	},
	{
		// A hand-written audit wrapped around the ledger.
		name: "hand-written audit", analyzer: "ownership",
		file: "cmd/trailsim/main.go",
		old:  "\t\tload.OnAck = ledger.Record\n",
		new:  "\t\tload.OnAck = func(lba int64, data []byte, issued, acked int) { ledger.Record(lba, data, issued, acked) }\n",
		want: `a workload\.Load\.OnAck set to anything but a workload\.Ledger's Record`,
	},
	{
		// A process handle kept past its process: the kernel recycles the
		// record, so a later Kill would reach whatever runs in it then.
		name: "stored process handle", analyzer: "ownership",
		file: "internal/cluster/health.go",
		old:  "\tprobeFails int // consecutive failed probes / soft request errors\n",
		new:  "\tprobeFails int // consecutive failed probes / soft request errors\n\trebuilder  *sim.Proc // the process copying the shard back\n",
		want: `a stored \*sim\.Proc`,
	},
	{
		// A second read of the datasheet beside the head model's copy.
		name: "second Params read", analyzer: "ownership",
		file: "internal/trail/driver.go",
		old:  "\t\t\tpw.rq.Command(&res, ld.head.rotPeriod)\n",
		new:  "\t\t\tpw.rq.Command(&res, ld.disk.Params().RotPeriod())\n",
		want: `a disk\.Disk\.Params read in package trail outside format\.go and NewDriverMulti`,
	},
	{
		// A checkpoint of a drive, where a crash branch clones it.
		name: "checkpoint method", analyzer: "ownership",
		file: "internal/disk/disk.go",
		old:  "func (d *Disk) Digest() uint64 {\n",
		new:  "func (d *Disk) Snapshot() *Disk { return d.Clone() }\n\nfunc (d *Disk) Digest() uint64 {\n",
		want: `a Snapshot or Restore method`,
	},
	{
		// A second Prometheus writer.
		name: "second Prometheus writer", analyzer: "ownership",
		file: "internal/rig/instruments.go",
		old:  "// NewInstruments returns a bundle",
		new:  "func (in Instruments) WriteProm(w io.Writer) error { return in.Registry.WriteProm(w) }\n\n// NewInstruments returns a bundle",
		want: `a WriteProm or ParseProm declaration outside internal/telemetry`,
	},
	{
		// A second span-dump schema.
		name: "second span schema", analyzer: "ownership",
		file: "internal/rig/instruments.go",
		old:  "\tSpans    []*span.Request\n",
		new:  "\tSpans    []*span.Request `json:\"requests\"`\n",
		want: `a trace-event or span-dump JSON tag outside internal/trace, internal/span`,
	},
	{
		// A run's span budget computed where the run is read, not by rundiff.
		name: "budget outside rundiff", analyzer: "ownership",
		file: "internal/rig/instruments.go",
		old:  "// ReadDir reads the artefacts",
		new:  "func (r *Run) Budget() *span.Budget { return span.Analyze(r.Spans) }\n\n// ReadDir reads the artefacts",
		want: `a use of span\.Analyze, span\.ExplainTail or trace\.AuditEvents outside cmd/rundiff`,
	},
	{
		// Requests counted by walking them, the first step of a second
		// span aggregation.
		name: "second span aggregation", analyzer: "ownership",
		file: "cmd/rundiff/main.go",
		old:  "\tif len(run.Spans) > 0 {\n",
		new:  "\treqs := 0\n\tfor range run.Spans {\n\t\treqs++\n\t}\n\tif reqs > 0 {\n",
		want: `a range over a Spans field outside internal/span`,
	},
	{
		// A storage layer pulled into the package every layer imports.
		name: "module import in telemetry", analyzer: "ownership",
		file: "internal/telemetry/counts.go",
		old:  "// names returns the counter names in sorted order.\n",
		new:  "// Bytes reads a sector counter in bytes.\nfunc (c Counts) Bytes(name string) int64 { return c[name] * geom.SectorSize }\n\n// names returns the counter names in sorted order.\n",
		imp:  "tracklog/internal/geom",
		want: `an import outside the standard library in internal/telemetry`,
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
