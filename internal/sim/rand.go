package sim

import "math"

// Rand is a deterministic pseudo-random source (xorshift64*). It is small,
// fast, allocation-free, and — unlike math/rand's global source — impossible
// to accidentally reseed from the wall clock, which protects simulation
// reproducibility.
type Rand struct {
	state uint64
	nurC  int // fixed run constant for NURand, derived from the seed
}

// NewRand returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant, since xorshift has an all-zero fixed point).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed, nurC: int(seed % 256)}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int64n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi] inclusive.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed sample with the given mean,
// useful for arrival processes.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// NURand implements the TPC-C non-uniform random function
// NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y-x+1)) + x
// with a fixed run constant C derived from the generator seed.
func (r *Rand) NURand(a, x, y int) int {
	return (((r.IntRange(0, a) | r.IntRange(x, y)) + r.nurC) % (y - x + 1)) + x
}
