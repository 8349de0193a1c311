package workload

// Multi-tenant request mixes for the sharded cluster. One Mix is a fully
// materialized, deterministic request stream: tenant choice (zipfian skew so
// a few tenants dominate, like real multi-tenant storage), per-request
// service class drawn from configured weights, read/write choice, and
// Poisson arrivals. Generating the whole stream up front — instead of
// sampling inside the serving loop — keeps the workload byte-identical
// across runs regardless of how the cluster reorders completions.

import (
	"fmt"
	"math"
	"time"

	"tracklog/internal/blockdev"
	"tracklog/internal/sim"
)

// BlocksPerTenant is each tenant's addressable block count: a mix draws
// its requests' blocks from it, and the cluster allocates that many slots
// per tenant.
const BlocksPerTenant = 2

// MixConfig describes a multi-tenant request stream.
type MixConfig struct {
	// Tenants is the number of simulated tenants (must be > 0).
	Tenants int
	// Requests is the total number of requests to generate.
	Requests int
	// ReadFraction is the probability a request is a read (default 0; the
	// cluster experiments are write-heavy like the paper's §5.1 loads).
	ReadFraction float64
	// Interarrival is the mean of the exponential arrival gap
	// (default 500µs).
	Interarrival time.Duration
	// ZipfS is the zipfian skew exponent over tenants: 0 = uniform,
	// ~1 = classic heavy skew where tenant 0 dominates.
	ZipfS float64
	// BackgroundWeight and InteractiveWeight are the per-request odds of
	// the non-default classes, in parts per hundred; the remainder is
	// ClassNormal. Both zero means all-Normal traffic.
	BackgroundWeight  int
	InteractiveWeight int
	// Seed feeds the generator's private sim.Rand.
	Seed uint64
}

func (c MixConfig) withDefaults() MixConfig {
	if c.Interarrival == 0 {
		c.Interarrival = 500 * time.Microsecond
	}
	return c
}

// MixRequest is one materialized request.
type MixRequest struct {
	// At is the virtual arrival instant.
	At time.Duration
	// Tenant and Block address the target slot.
	Tenant, Block int
	// Read selects read vs write.
	Read bool
	// Class is the request's service class.
	Class blockdev.Class
}

// GenerateMix materializes a deterministic request stream. The same config
// (including seed) always yields the same stream.
func GenerateMix(cfg MixConfig) ([]MixRequest, error) {
	cfg = cfg.withDefaults()
	if cfg.Tenants <= 0 {
		return nil, fmt.Errorf("workload: mix needs Tenants > 0, got %d", cfg.Tenants)
	}
	if cfg.Requests < 0 {
		return nil, fmt.Errorf("workload: negative Requests %d", cfg.Requests)
	}
	if cfg.Interarrival < 0 {
		return nil, fmt.Errorf("workload: negative Interarrival %v", cfg.Interarrival)
	}
	if !(cfg.ReadFraction >= 0 && cfg.ReadFraction <= 1) {
		return nil, fmt.Errorf("workload: ReadFraction %v outside [0,1]", cfg.ReadFraction)
	}
	// A negative exponent can overflow the CDF's total and make the CDF
	// NaN; the tenant draw needs a non-decreasing CDF.
	if !(cfg.ZipfS >= 0) || math.IsInf(cfg.ZipfS, 1) {
		return nil, fmt.Errorf("workload: ZipfS %v not a finite exponent >= 0", cfg.ZipfS)
	}
	if cfg.BackgroundWeight < 0 || cfg.InteractiveWeight < 0 ||
		cfg.BackgroundWeight+cfg.InteractiveWeight > 100 {
		return nil, fmt.Errorf("workload: class weights %d+%d must be >= 0 and sum <= 100",
			cfg.BackgroundWeight, cfg.InteractiveWeight)
	}

	// Precompute the zipfian CDF over tenants once; sampling is then a
	// single uniform draw plus a table lookup, with no float accumulation
	// order depending on the request stream.
	tenants := newZipfTable(cfg.Tenants, cfg.ZipfS)

	rng := sim.NewRand(cfg.Seed)
	reqs := make([]MixRequest, 0, cfg.Requests)
	var at time.Duration
	for i := 0; i < cfg.Requests; i++ {
		at += time.Duration(rng.Exp(float64(cfg.Interarrival)))
		r := MixRequest{
			At:     at,
			Tenant: tenants.draw(rng.Float64()),
			Block:  rng.Intn(BlocksPerTenant),
			Read:   rng.Float64() < cfg.ReadFraction,
		}
		switch c := rng.Intn(100); {
		case c < cfg.BackgroundWeight:
			r.Class = blockdev.ClassBackground
		case c < cfg.BackgroundWeight+cfg.InteractiveWeight:
			r.Class = blockdev.ClassInteractive
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// zipfCDF returns the cumulative distribution over n ranks with exponent s.
// s == 0 degenerates to uniform.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against rounding leaving the tail unreachable
	return cdf
}

// zipfTable draws ranks from a Zipf CDF through a guide table: bucket b of
// K holds the first rank whose cumulative mass covers b/K, and a draw u
// walks forward from its bucket's rank while the mass is below u. That is
// exactly the first rank covering u, since no rank before the bucket's
// covers b/K <= u and cdf[n-1] == 1 ends the walk; K is a power of two, so
// int(u*K) is u's bucket exactly. With K >= 32n buckets most hold one rank,
// so a draw is a load and one compare whose branch the CPU predicts.
type zipfTable struct {
	cdf   []float64
	start []int32
}

func newZipfTable(n int, s float64) zipfTable {
	k := 1
	for k < 32*n && k < 1<<16 {
		k <<= 1
	}
	t := zipfTable{cdf: zipfCDF(n, s), start: make([]int32, k)}
	i := 0
	for b := range t.start {
		i = t.walk(i, float64(b)/float64(k))
		t.start[b] = int32(i)
	}
	return t
}

// draw returns the first rank whose cumulative mass covers u in [0, 1).
func (t zipfTable) draw(u float64) int {
	return t.walk(int(t.start[int(u*float64(len(t.start)))]), u)
}

// walk returns the first rank from i on whose cumulative mass covers u.
func (t zipfTable) walk(i int, u float64) int {
	for t.cdf[i] < u {
		i++
	}
	return i
}
