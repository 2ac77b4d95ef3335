package stats

import (
	"math"
)

// KahanSum accumulates float64 values with compensated (Kahan) summation.
// The paper's cost models sum up to 10^17 terms of widely varying
// magnitude; naive accumulation loses several digits there.
type KahanSum struct {
	sum, c float64
}

// Add folds x into the sum.
func (k *KahanSum) Add(x float64) {
	y := x - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Value returns the current compensated total.
func (k *KahanSum) Value() float64 { return k.sum }

// Sample accumulates scalar observations and reports their mean with
// Welford's online update, which is numerically stable and single-pass.
type Sample struct {
	n    int64
	mean float64
}

// Add folds one observation into the sample.
func (s *Sample) Add(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Merge folds another sample into s, as if every observation of o had
// been Added to s (the pairwise mean update of Chan, Golub and LeVeque).
// Merge is what the parallel experiment engine uses to combine per-shard
// accumulations, so its result must not depend on which goroutine
// produced which shard — it depends only on the two operand states.
func (s *Sample) Merge(o Sample) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.n = n
}

// Mean returns the sample mean, or NaN if empty.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// RelErr returns (got-want)/want, the signed relative error used in the
// paper's tables. It returns 0 when both values are zero and ±Inf when
// only want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(sign(got))
	}
	return (got - want) / want
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
