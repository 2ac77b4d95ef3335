// Package stats provides the statistical substrate shared by the rest of
// the repository: deterministic random-number generation, numerically
// stable accumulation, and aggregation of repeated simulation runs.
//
// Every source of randomness in this project flows through RNG so that
// experiments are reproducible bit-for-bit from a single seed. RNG wraps
// the stdlib PCG generator and adds the handful of distributions the
// paper's simulation protocol needs (uniform integers without
// replacement, Fisher-Yates shuffles, geometric/bernoulli draws).
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator. It is a thin wrapper
// around math/rand/v2's PCG that supports hierarchical splitting: a parent
// generator can derive independent child streams for sub-experiments so
// that adding a new consumer of randomness does not perturb existing ones.
type RNG struct {
	src *rand.Rand
	// seed material retained so children can be derived deterministically.
	s1, s2  uint64
	nextKid uint64
}

// NewRNG returns a generator seeded from the two 64-bit words. The same
// pair always yields the same stream.
func NewRNG(s1, s2 uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(s1, s2)), s1: s1, s2: s2}
}

// NewRNGFromSeed returns a generator from a single word seed.
func NewRNGFromSeed(seed uint64) *RNG {
	return NewRNG(seed, 0x9e3779b97f4a7c15^seed)
}

// Child derives an independent stream. Successive calls return distinct
// streams; the i-th child of a given parent is always the same stream.
func (r *RNG) Child() *RNG {
	r.nextKid++
	// Mix the child index into fresh seed material with SplitMix64-style
	// finalization so children are decorrelated from the parent stream.
	k := r.nextKid
	return NewRNG(mix64(r.s1^k), mix64(r.s2+k*0x9e3779b97f4a7c15))
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// OpenFloat64 returns a uniform value in the open interval (0,1).
// Inverse-CDF sampling uses this to avoid the degenerate endpoints.
func (r *RNG) OpenFloat64() float64 {
	for {
		u := r.src.Float64()
		if u > 0 {
			return u
		}
	}
}

// IntN returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Perm returns a uniformly random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// ShuffleInt32 shuffles a slice of int32 in place.
func (r *RNG) ShuffleInt32(s []int32) {
	r.src.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// Geometric returns a draw from the geometric distribution on {0,1,2,...}
// with success probability p in (0,1]: the number of failures before the
// first success. Used by the skip-sampling Chung-Lu generator.
func (r *RNG) Geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("stats: Geometric requires p in (0,1]")
	}
	u := r.OpenFloat64()
	return int64(math.Floor(math.Log(u) / math.Log1p(-p)))
}
