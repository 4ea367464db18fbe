package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Every stochastic component in this repository takes an
// explicit *RNG so runs are reproducible from a single seed, and so that
// per-user generators can be forked cheaply without lock contention.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which is the
// recommended way to initialise xoshiro state (it guarantees a non-zero
// state for any seed, including 0).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork returns an independent generator derived from r's stream and the
// given stream identifier. Forks with distinct ids are statistically
// independent, which lets per-user simulation run in any order while
// producing identical data.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn: n must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a log-normal variate with the given log-space mean and
// standard deviation.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.Float64() < p }

// Pareto returns a Pareto (power-law) variate with minimum xm and shape
// alpha. Inter-session gaps in the synthetic datasets use this distribution,
// matching the paper's observation that Δt is power-law distributed.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}

// Poisson returns a Poisson variate with the given mean (Knuth for small
// means, normal approximation above 30 where exact sampling is needless).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= r.Float64()
	}
	return k - 1
}

// FillUniform fills v with Uniform(lo, hi) values.
func (r *RNG) FillUniform(v Vector, lo, hi float64) {
	for i := range v {
		v[i] = lo + (hi-lo)*r.Float64()
	}
}
