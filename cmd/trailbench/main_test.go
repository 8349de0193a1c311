package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tracklog/internal/crashexplore/stacks"
	"tracklog/internal/rig"
	"tracklog/internal/sim"
	"tracklog/internal/telemetry"
)

// runIn runs trailbench with -json and -telemetry pointed into dir and
// returns its stdout and every file it left there.
func runIn(t *testing.T, dir string) (stdout string, files map[string][]byte) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{
		"-json", filepath.Join(dir, "bench.json"),
		"-telemetry", filepath.Join(dir, "sb.prom"),
	}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	files = make(map[string][]byte)
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = data
	}
	return out.String(), files
}

// Two same-seed runs must produce byte-identical deterministic artifacts:
// the gate file, stdout, and every per-world telemetry export. With
// TestDefaultRunReproducesBaseline it is the bench gate.
func TestTwoRunByteIdenticalArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole gate twice")
	}
	d1, d2 := t.TempDir(), t.TempDir()
	out1, files1 := runIn(t, d1)
	out2, files2 := runIn(t, d2)

	// Stdout echoes the -json path, which differs between temp dirs.
	norm := func(s, dir string) string { return string(bytes.ReplaceAll([]byte(s), []byte(dir), []byte("DIR"))) }
	if norm(out1, d1) != norm(out2, d2) {
		t.Errorf("stdout differs between runs:\n--- run1\n%s--- run2\n%s", out1, out2)
	}
	if len(files1) != len(files2) {
		t.Fatalf("file sets differ: %d vs %d", len(files1), len(files2))
	}
	for name, data1 := range files1 {
		data2, ok := files2[name]
		if !ok {
			t.Fatalf("run2 missing %s", name)
		}
		if !bytes.Equal(data1, data2) {
			t.Errorf("%s differs between same-seed runs", name)
		}
	}
	for _, name := range []string{"bench.json", "sb-trail.prom", "sb-stddisk.prom", "sb-raid5.prom", "sb-wal.prom"} {
		if _, ok := files1[name]; !ok {
			t.Errorf("missing artifact %s", name)
		}
	}
}

// A default-flag run must reproduce the checked-in baseline byte for byte —
// with and without the optional exports attached, since instruments never
// move virtual time.
func TestDefaultRunReproducesBaseline(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_trail.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, extra := range [][]string{
		nil,
		{"-telemetry", filepath.Join(dir, "sb.prom"), "-timeline", "5ms", "-timeline-out", filepath.Join(dir, "tl.csv")},
	} {
		path := filepath.Join(dir, "bench.json")
		var out, errb bytes.Buffer
		if code := run(append([]string{"-json", path}, extra...), &out, &errb); code != 0 {
			t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trailbench %v does not reproduce BENCH_trail.json; if the change is intended, regenerate it with `go run ./cmd/trailbench`", extra)
		}
	}
}

// Every world's single Observe hook must accept the zero instruments bundle
// (and the kernel the same bundle) as a no-op: the nil-is-disabled discipline
// that keeps un-instrumented worlds at zero overhead.
func TestNilRegistryIsNoOpInEveryWorld(t *testing.T) {
	for _, name := range worlds {
		t.Run(name, func(t *testing.T) {
			st, err := stacks.ByName(name, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv()
			defer env.Close()
			rig.Instruments{}.AttachKernel(env)
			wf, _, err := st.Build(env)
			if err != nil {
				t.Fatal(err)
			}
			if st.Observe == nil {
				t.Fatal("stack lacks an Observe hook")
			}
			st.Observe(rig.Instruments{}) // must not panic or register anything
			env.Go("w", func(p *sim.Proc) {
				for i := 0; i < 2*st.Slots; i++ {
					if err := wf(p, i%st.Slots, i/st.Slots+1); err != nil {
						t.Errorf("write %d: %v", i, err)
						return
					}
				}
			})
			env.Run()
		})
	}
}

// The telemetry export must parse back through the shared exposition parser
// and contain both kernel series and component series for the world.
func TestTelemetryExportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	if _, err := worldPoint("trail", artifacts{telemetryBase: filepath.Join(dir, "t.prom")}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "t-trail.prom"))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := telemetry.ParseProm(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("export does not parse: %v", err)
	}
	for _, key := range []string{
		"tracklog_sim_events_dispatched_total",
		"tracklog_sim_virtual_time_ms",
		`tracklog_disk_utilization{disk="log0"}`,
	} {
		if _, ok := vals[key]; !ok {
			t.Errorf("export missing series %s", key)
		}
	}
	if vals["tracklog_sim_events_dispatched_total"] <= 0 {
		t.Error("kernel dispatched counter is zero in export")
	}
}

func TestArtifactPathInsertsName(t *testing.T) {
	for _, tc := range []struct{ base, name, want string }{
		{"sim.prom", "trail", "sim-trail.prom"},
		{"out/sim.json", "wal", "out/sim-wal.json"},
		{"noext", "raid5", "noext-raid5"},
		{"timeline.csv", "sync-write/trail/sparse/1KB", "timeline-sync-write-trail-sparse-1KB.csv"},
	} {
		if got := artifactPath(tc.base, tc.name); got != tc.want {
			t.Errorf("artifactPath(%q, %q) = %q, want %q", tc.base, tc.name, got, tc.want)
		}
	}
}
