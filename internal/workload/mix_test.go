package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
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
		{Tenants: 1, Interarrival: -time.Microsecond},
		{Tenants: 1, ReadFraction: math.NaN()},
		{Tenants: 1, ZipfS: math.NaN()},
		{Tenants: 1, ZipfS: math.Inf(1)},
		{Tenants: 1, ZipfS: math.Inf(-1)},
		{Tenants: 48, ZipfS: -400}, // the CDF's total overflows to +Inf
	}
	for _, cfg := range bad {
		if _, err := GenerateMix(cfg); err == nil {
			t.Errorf("GenerateMix(%+v) accepted bad config", cfg)
		}
	}
}

// mixDigest is the FNV-64a digest of every field of every request, each
// written as a little-endian uint64, so a pin holds with a 32-bit int too.
func mixDigest(reqs []MixRequest) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, r := range reqs {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(r.At))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Tenant))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Block))
		read := uint64(0)
		if r.Read {
			read = 1
		}
		b = binary.LittleEndian.AppendUint64(b, read)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Class))
		h.Write(b)
	}
	return h.Sum64()
}

// TestGenerateMixStreamPinned holds the streams the benchmark and the
// cluster experiments replay to the bytes they had before the tenant draw
// went through a guide table: a sampler change must not move a request.
func TestGenerateMixStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MixConfig
		want uint64
	}{
		{"bench", benchMix, 0x8e53300473c8ed0e},
		// experiments.ClusterMix(60000, 1).
		{"ClusterMix", MixConfig{Tenants: 48, Requests: 60000, ReadFraction: 0.3,
			Interarrival: 400 * time.Microsecond, ZipfS: 0.9, BackgroundWeight: 15, InteractiveWeight: 10, Seed: 1}, 0x1b975c0d986f74e7},
	} {
		reqs, err := GenerateMix(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := mixDigest(reqs); got != tc.want {
			t.Errorf("%s: stream digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// sampleCDF is the reference a guide table must agree with: a binary search
// for the first index whose cumulative mass covers u.
func sampleCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfTableMatchesBinarySearch holds every draw of the guide table to
// the binary search's index: at 0, at each CDF value and both its float
// neighbours (every edge where the answer changes), and on seeded draws, for
// 1-64 tenants at five skews and for trailsim's 10 000-slot pattern.
func TestZipfTableMatchesBinarySearch(t *testing.T) {
	type shape struct {
		n     int
		s     float64
		draws int
	}
	var shapes []shape
	for n := 1; n <= 64; n++ {
		for _, s := range []float64{0, 0.5, 0.9, 0.99, 1.5} {
			draws := 20000
			if n == benchMix.Tenants && s == benchMix.ZipfS {
				draws = 1000000
			}
			shapes = append(shapes, shape{n, s, draws})
		}
	}
	shapes = append(shapes, shape{10000, 0.99, 1000000})
	for _, sh := range shapes {
		tab := newZipfTable(sh.n, sh.s)
		var walks, draws, longest int
		check := func(u float64) {
			got, want := tab.draw(u), sampleCDF(tab.cdf, u)
			if got != want {
				t.Fatalf("n=%d s=%v: draw(%v) = %d, binary search %d", sh.n, sh.s, u, got, want)
			}
			walk := got - int(tab.start[int(u*float64(len(tab.start)))])
			walks += walk
			draws++
			longest = max(longest, walk)
		}
		check(0)
		for _, c := range tab.cdf {
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 2)} {
				if u < 1 {
					check(u)
				}
			}
		}
		rng := sim.NewRand(uint64(sh.n))
		for i := 0; i < sh.draws; i++ {
			check(rng.Float64())
		}
		if sh.draws > 20000 {
			t.Logf("n=%d s=%v, %d buckets: mean walk %.4f, longest %d over %d draws",
				sh.n, sh.s, len(tab.start), float64(walks)/float64(draws), longest, draws)
		}
	}
}
