package workload

import (
	"slices"
	"testing"
	"time"

	"tracklog/internal/blockdev"
)

func TestGenerateMixDeterministic(t *testing.T) {
	cfg := MixConfig{
		Tenants:           64,
		Requests:          5000,
		ReadFraction:      0.3,
		ZipfS:             0.9,
		BackgroundWeight:  20,
		InteractiveWeight: 10,
		Seed:              42,
	}
	a, err := GenerateMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("same seed produced different request streams")
	}
	cfg.Seed = 43
	c, err := GenerateMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds produced identical request streams")
	}
}

func TestGenerateMixShape(t *testing.T) {
	cfg := MixConfig{
		Tenants:           32,
		Requests:          20000,
		ReadFraction:      0.25,
		ZipfS:             1.0,
		BackgroundWeight:  30,
		InteractiveWeight: 15,
		Seed:              7,
	}
	reqs, err := GenerateMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != cfg.Requests {
		t.Fatalf("got %d requests, want %d", len(reqs), cfg.Requests)
	}

	var last time.Duration
	perTenant := make([]int, cfg.Tenants)
	perClass := make(map[blockdev.Class]int)
	reads := 0
	for _, r := range reqs {
		if r.At < last {
			t.Fatalf("arrivals not monotone: %v after %v", r.At, last)
		}
		last = r.At
		if r.Tenant < 0 || r.Tenant >= cfg.Tenants {
			t.Fatalf("tenant %d out of range", r.Tenant)
		}
		if r.Block < 0 || r.Block >= BlocksPerTenant {
			t.Fatalf("block %d out of range", r.Block)
		}
		perTenant[r.Tenant]++
		perClass[r.Class]++
		if r.Read {
			reads++
		}
	}

	// Zipf s=1: tenant 0 must dominate the median tenant by a wide margin.
	if perTenant[0] < 4*perTenant[cfg.Tenants/2] {
		t.Fatalf("zipf skew missing: tenant0=%d median=%d",
			perTenant[0], perTenant[cfg.Tenants/2])
	}
	// Class weights within loose tolerance (±5pp on 20k samples).
	for class, want := range map[blockdev.Class]int{
		blockdev.ClassBackground:  30,
		blockdev.ClassInteractive: 15,
		blockdev.ClassNormal:      55,
	} {
		got := 100 * perClass[class] / cfg.Requests
		if got < want-5 || got > want+5 {
			t.Errorf("class %v share = %d%%, want ~%d%%", class, got, want)
		}
	}
	if got := 100 * reads / cfg.Requests; got < 20 || got > 30 {
		t.Errorf("read share = %d%%, want ~25%%", got)
	}
}

func TestGenerateMixUniformWhenUnskewed(t *testing.T) {
	reqs, err := GenerateMix(MixConfig{Tenants: 8, Requests: 8000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	perTenant := make([]int, 8)
	for _, r := range reqs {
		perTenant[r.Tenant]++
		if r.Read {
			t.Fatal("default mix should be write-only")
		}
		if r.Class != blockdev.ClassNormal {
			t.Fatalf("default mix should be all-Normal, got %v", r.Class)
		}
	}
	for i, n := range perTenant {
		if n < 700 || n > 1300 {
			t.Fatalf("tenant %d got %d of 8000 requests, want ~1000", i, n)
		}
	}
}

func TestGenerateMixRejectsBadConfig(t *testing.T) {
	bad := []MixConfig{
		{Tenants: 0},
		{Tenants: 1, Requests: -1},
		{Tenants: 1, ReadFraction: 1.5},
		{Tenants: 1, BackgroundWeight: 80, InteractiveWeight: 30},
		{Tenants: 1, BackgroundWeight: -1},
	}
	for _, cfg := range bad {
		if _, err := GenerateMix(cfg); err == nil {
			t.Errorf("GenerateMix(%+v) accepted bad config", cfg)
		}
	}
}
