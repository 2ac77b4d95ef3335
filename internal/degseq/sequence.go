package degseq

import (
	"fmt"

	"trilist/internal/stats"
)

// Sequence is a degree sequence D_n = (D_n1, ..., D_nn): the prescribed
// degree of each of the n nodes of a random graph. Entries are positive.
type Sequence []int64

// Sample draws an iid degree sequence of length n from dist using
// inverse-CDF sampling (the paper's discretization "round up each
// generated value" is already baked into the discrete distributions).
func Sample(dist Dist, n int, rng *stats.RNG) Sequence {
	d := make(Sequence, n)
	for i := range d {
		d[i] = dist.Quantile(rng.OpenFloat64())
	}
	return d
}

// Sum returns Σ d_i, i.e. twice the number of edges when realizable.
func (d Sequence) Sum() int64 {
	var s int64
	for _, x := range d {
		s += x
	}
	return s
}

// Validate checks that every entry is in [1, n-1] (required for a simple
// graph) and returns a descriptive error otherwise.
func (d Sequence) Validate() error {
	n := int64(len(d))
	for i, x := range d {
		if x < 1 {
			return fmt.Errorf("degseq: degree[%d] = %d < 1", i, x)
		}
		if x > n-1 {
			return fmt.Errorf("degseq: degree[%d] = %d exceeds n-1 = %d", i, x, n-1)
		}
	}
	return nil
}

// MakeEven decrements one maximal entry by 1 if the degree sum is odd,
// mirroring the paper's "can be made [graphic] by removal of one edge".
// Entries equal to 1 are never driven to 0: if the only odd-sum fix would
// zero a degree, the smallest entry > 1 is used. It reports whether a
// modification was made.
func (d Sequence) MakeEven() bool {
	if d.Sum()%2 == 0 {
		return false
	}
	// Prefer decrementing a maximal entry: it perturbs the distribution
	// tail by the least relative amount.
	best := -1
	for i, x := range d {
		if x > 1 && (best < 0 || x > d[best]) {
			best = i
		}
	}
	if best < 0 {
		// All entries are 1 and the sum is odd; drop one node's stub.
		// The generator will leave the stub unmatched instead.
		return false
	}
	d[best]--
	return true
}
