package cluster

import (
	"testing"

	"tracklog/internal/sim"
	"tracklog/internal/workload"
)

// The golden placement table pins the consistent-hash router's output for a
// fixed configuration. Placement is an on-disk-layout-level contract: a
// silent change strands every tenant's data on shards that no longer serve
// it, so any intentional rebalance must show up as a diff here.
func TestPlacementGolden(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	c, err := New(env, Config{Shards: 4, Tenants: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := []Placement{
		{2, 0, 0, 0},
		{0, 2, 4, 4},
		{1, 3, 0, 0},
		{1, 3, 4, 4},
		{3, 1, 8, 8},
		{0, 3, 8, 12},
		{3, 2, 16, 8},
		{1, 2, 12, 12},
		{3, 2, 20, 16},
		{0, 2, 12, 20},
		{2, 0, 24, 16},
		{0, 1, 20, 16},
		{2, 3, 28, 24},
		{2, 0, 32, 24},
		{1, 2, 20, 36},
		{0, 2, 28, 40},
	}
	for tn, w := range want {
		if got := c.Placement(tn); got != w {
			t.Errorf("tenant %d placement = %+v, want %+v", tn, got, w)
		}
	}
}

// The ring and placements must be identical across builds: slices and
// sorted hashes only, no map iteration anywhere in the path.
func TestRouterDeterministic(t *testing.T) {
	build := func() ([]ringEntry, []Placement) {
		env := sim.NewEnv()
		defer env.Close()
		c, err := New(env, Config{Shards: 5, Tenants: 300})
		if err != nil {
			t.Fatal(err)
		}
		return c.ring, c.place
	}
	ringA, placeA := build()
	ringB, placeB := build()
	for i := range ringA {
		if ringA[i] != ringB[i] {
			t.Fatalf("ring entry %d differs across builds: %+v vs %+v", i, ringA[i], ringB[i])
		}
	}
	for i := range placeA {
		if placeA[i] != placeB[i] {
			t.Fatalf("tenant %d placement differs across builds: %+v vs %+v", i, placeA[i], placeB[i])
		}
	}
}

// Every tenant needs a replica distinct from its primary, and placement
// should use every shard for a reasonable tenant population.
func TestPlacementShape(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	const shards, tenants = 6, 600
	c, err := New(env, Config{Shards: shards, Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	primaries := make([]int, shards)
	for tn := 0; tn < tenants; tn++ {
		pl := c.Placement(tn)
		if pl.Primary == pl.Replica {
			t.Fatalf("tenant %d: primary == replica == %d", tn, pl.Primary)
		}
		if pl.Primary < 0 || pl.Primary >= shards || pl.Replica < 0 || pl.Replica >= shards {
			t.Fatalf("tenant %d: placement out of range: %+v", tn, pl)
		}
		primaries[pl.Primary]++
	}
	for s, n := range primaries {
		// Perfectly uniform would be 100 per shard; consistent hashing with
		// 16 vnodes is lumpy but must not starve or swamp a shard.
		if n < 20 || n > 300 {
			t.Errorf("shard %d owns %d of %d primaries — placement badly skewed", s, n, tenants)
		}
	}
}

// Placement regions on one shard must never overlap: a tenant pair sharing
// sectors would corrupt each other.
func TestPlacementRegionsDisjoint(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	cfg := Config{Shards: 4, Tenants: 128}
	c, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type region struct {
		tenant int
		lba    int64
	}
	perShard := make([][]region, cfg.Shards)
	for tn := 0; tn < cfg.Tenants; tn++ {
		pl := c.Placement(tn)
		perShard[pl.Primary] = append(perShard[pl.Primary], region{tn, pl.PrimaryLBA})
		perShard[pl.Replica] = append(perShard[pl.Replica], region{tn, pl.ReplicaLBA})
	}
	size := int64(workload.BlocksPerTenant * spb)
	for s, regs := range perShard {
		for i := range regs {
			for j := i + 1; j < len(regs); j++ {
				a, b := regs[i], regs[j]
				if a.lba < b.lba+size && b.lba < a.lba+size {
					t.Fatalf("shard %d: tenants %d and %d overlap at LBAs %d/%d",
						s, a.tenant, b.tenant, a.lba, b.lba)
				}
			}
		}
	}
}
