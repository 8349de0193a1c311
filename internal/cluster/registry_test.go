package cluster

import (
	"bufio"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/disk"
	"tracklog/internal/kvdb"
	"tracklog/internal/rig"
	"tracklog/internal/sched"
	"tracklog/internal/sim"
	"tracklog/internal/stddisk"
	"tracklog/internal/telemetry"
	"tracklog/internal/txn"
	"tracklog/internal/wal"
)

// layer is one layer's snapshots as its registry series should carry them:
// label is the rendered label block, "" for none.
type layer struct {
	label  string
	counts telemetry.Counts
	levels telemetry.Levels
}

// Every layer's func-backed series are entries of its snapshots, and only
// those: after a short observed run, the registry's counter series are
// exactly the Counts entries of each layer — under CounterName, with the
// layer's label and value — and its gauge series exactly the Levels entries,
// under GaugeName. No Levels entry shares a name with a Counts entry: a
// Stats field reaches the registry as a counter, through Counts.
func TestRegistryExportsEveryLayersCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		// run builds and runs a world observed by reg and returns each
		// layer's snapshots at its end; the world closes when the test
		// does, after the export.
		run func(t *testing.T, reg *telemetry.Registry) []layer
	}{
		{"trail-rig", func(t *testing.T, reg *telemetry.Registry) []layer {
			r := rigWrites(t, rig.Config{Instruments: rig.Instruments{Registry: reg}})
			t.Cleanup(r.Close)
			return []layer{
				{"", r.Env.KernelStats().Counters(), r.Env.Levels()},
				{"", r.Trail.Stats().Counters(), r.Trail.Levels()},
				{`{disk="log0"}`, r.LogDisks[0].Stats().Counters(), r.LogDisks[0].Levels()},
				{`{disk="data0"}`, r.Trail.DataQueue(0).Stats().Counters(), r.Trail.DataQueue(0).Levels()},
				{`{disk="data0"}`, r.DataDisks[0].Stats().Counters(), r.DataDisks[0].Levels()},
			}
		}},
		{"stddisk-rig-wal-txn", func(t *testing.T, reg *telemetry.Registry) []layer {
			r, err := rig.New(rig.Config{Baseline: sched.LOOK, DataDisks: 2, Instruments: rig.Instruments{Registry: reg}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			l, err := wal.New(r.Env, wal.Config{Dev: r.Dev(0), Sectors: r.Dev(0).Sectors(), Mode: wal.SyncEveryCommit})
			if err != nil {
				t.Fatal(err)
			}
			l.RegisterMetrics(reg)
			m := txn.NewManager(r.Env, l)
			m.RegisterMetrics(reg)
			contendedCommits(t, r.Env, r.Dev(1), m)
			out := []layer{
				{"", r.Env.KernelStats().Counters(), r.Env.Levels()},
				{"", l.Stats().Counters(), l.Levels()},
				{"", m.Stats().Counters(), m.Levels()},
			}
			for i, d := range r.Std {
				label := fmt.Sprintf(`{disk="disk%d"}`, i)
				out = append(out, layer{label, d.Stats().Counters(), nil},
					layer{label, d.Queue().Stats().Counters(), d.Queue().Levels()},
					layer{label, r.DataDisks[i].Stats().Counters(), r.DataDisks[i].Levels()})
			}
			return out
		}},
		{"cluster", func(t *testing.T, reg *telemetry.Registry) []layer {
			env := sim.NewEnv()
			t.Cleanup(env.Close)
			c, err := New(env, Config{Shards: 2, Tenants: 8})
			if err != nil {
				t.Fatal(err)
			}
			env.SetMetrics(reg)
			c.RegisterMetrics(reg)
			env.Go("client", func(p *sim.Proc) {
				for tn := 0; tn < 8; tn++ {
					if err := c.Write(p, tn, 0, blockdev.ClassNormal); err != nil {
						t.Errorf("write tenant %d: %v", tn, err)
					}
				}
			})
			env.Run()
			out := []layer{{"", env.KernelStats().Counters(), env.Levels()}, {"", c.Stats().Counters(), nil}}
			for i, sh := range c.shards {
				out = append(out, layer{fmt.Sprintf(`{shard="%d"}`, i), nil, sh.Levels()})
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			layers := tc.run(t, reg)
			var prom strings.Builder
			if err := reg.WriteProm(&prom); err != nil {
				t.Fatal(err)
			}
			vals, err := telemetry.ParseProm(strings.NewReader(prom.String()))
			if err != nil {
				t.Fatal(err)
			}
			type series struct {
				typ string
				v   float64
			}
			want := map[string]series{}
			add := func(key, typ string, v float64) {
				if _, dup := want[key]; dup {
					t.Errorf("two layers name series %s", key)
				}
				want[key] = series{typ, v}
			}
			counted := map[string]bool{}
			for _, l := range layers {
				for n, v := range l.counts {
					add(telemetry.CounterName(n)+l.label, "counter", float64(v))
					counted[n] = true
				}
			}
			for _, l := range layers {
				for n, v := range l.levels {
					if counted[n] {
						t.Errorf("level %s is also a counter; a Stats field is exported through Counts", n)
					}
					add(telemetry.GaugeName(n)+l.label, "gauge", v)
				}
			}
			for key, s := range want {
				if got, ok := vals[key]; !ok || (got != s.v && !(math.IsNaN(got) && math.IsNaN(s.v))) {
					t.Errorf("%s = %v (exported %v), want %v", key, got, ok, s.v)
				}
			}
			types := seriesTypes(prom.String())
			for key := range vals {
				name, _, _ := strings.Cut(key, "{")
				typ := types[name]
				if typ != "counter" && typ != "gauge" {
					continue
				}
				if s, ok := want[key]; !ok || s.typ != typ {
					t.Errorf("%s %s is no entry of a layer's snapshot of that kind", typ, key)
				}
			}
		})
	}
}

// Each layer's Counters names every field of its Stats once: with field i
// set to i+1 — a duration to i+1 microseconds — the values are 1..n, each
// under its own name.
func TestCountersNameEveryStatsField(t *testing.T) {
	for _, st := range []interface{ Counters() telemetry.Counts }{
		disk.Stats{}, sched.Stats{}, stddisk.Stats{}, wal.Stats{}, txn.Stats{}, Stats{}, sim.KernelStats{},
	} {
		v := reflect.New(reflect.TypeOf(st)).Elem()
		var want []int64
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.Type() == reflect.TypeOf(time.Duration(0)):
				f.SetInt(int64(time.Duration(i+1) * time.Microsecond))
			case f.CanInt():
				f.SetInt(int64(i + 1))
			default:
				t.Fatalf("%s.%s: a %s field has no counter form", v.Type(), v.Type().Field(i).Name, f.Type())
			}
			want = append(want, int64(i+1))
		}
		var got []int64
		for _, n := range v.Interface().(interface{ Counters() telemetry.Counts }).Counters() {
			got = append(got, n)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s.Counters() values %v, want each of the %d fields once: %v", v.Type(), got, len(want), want)
		}
	}
}

// seriesTypes maps each metric name in a Prometheus export to its TYPE.
func seriesTypes(prom string) map[string]string {
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(prom))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
	}
	return types
}

// rigWrites builds a rig from cfg and runs a few writes through it.
func rigWrites(t *testing.T, cfg rig.Config) *rig.Rig {
	r, err := rig.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 4*512)
		for i := 0; i < 8; i++ {
			if err := r.Dev(0).Write(p, int64(i)*64, 4, buf); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
	})
	r.Run()
	return r
}

// contendedCommits runs two clients that each commit three transactions
// updating one shared key of a tree on dev, so every wal counter and every
// txn counter but the abort and deadlock counts moves.
func contendedCommits(t *testing.T, env *sim.Env, dev blockdev.Device, m *txn.Manager) {
	var tree *kvdb.Tree
	env.Go("setup", func(p *sim.Proc) {
		s, err := kvdb.Open(p, dev, 64)
		if err == nil {
			tree, err = s.CreateTree(p)
		}
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if tree == nil {
		t.FailNow()
	}
	for c := 0; c < 2; c++ {
		env.Go(fmt.Sprintf("client-%d", c), func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				tx := m.Begin()
				if err := tx.Put(p, tree, 1, []byte("k"), []byte{byte(c), byte(i)}, 2, "k"); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(p); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	env.Run()
}
