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
	if cfg.ReadFraction < 0 || cfg.ReadFraction > 1 {
		return nil, fmt.Errorf("workload: ReadFraction %v outside [0,1]", cfg.ReadFraction)
	}
	if cfg.BackgroundWeight < 0 || cfg.InteractiveWeight < 0 ||
		cfg.BackgroundWeight+cfg.InteractiveWeight > 100 {
		return nil, fmt.Errorf("workload: class weights %d+%d must be >= 0 and sum <= 100",
			cfg.BackgroundWeight, cfg.InteractiveWeight)
	}

	// Precompute the zipfian CDF over tenants once; sampling is then a
	// single uniform draw plus a binary search, with no float accumulation
	// order depending on the request stream.
	cdf := zipfCDF(cfg.Tenants, cfg.ZipfS)

	rng := sim.NewRand(cfg.Seed)
	reqs := make([]MixRequest, 0, cfg.Requests)
	var at time.Duration
	for i := 0; i < cfg.Requests; i++ {
		at += time.Duration(rng.Exp(float64(cfg.Interarrival)))
		r := MixRequest{
			At:     at,
			Tenant: sampleCDF(cdf, rng.Float64()),
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

// sampleCDF returns the first index whose cumulative mass covers u.
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
