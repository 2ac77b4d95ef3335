package testkit

import (
	"math"
	"slices"
)

// KSDistance returns the supremum distance between the empirical CDF of
// obs and the reference cdf, both evaluated as right-continuous step
// functions at the observation points: sup_x |F(x) - F_emp(x)| with
// F_emp(x) = fraction of observations <= x. It is exact for discrete
// references whose atoms coincide with observation values (the degree
// distributions) and a tight lower bound on the classical KS statistic
// for continuous references. NaN for no observations.
func KSDistance(obs []float64, cdf func(float64) float64) float64 {
	n := len(obs)
	if n == 0 {
		return math.NaN()
	}
	sorted := slices.Clone(obs)
	slices.Sort(sorted)
	var d float64
	for i, x := range sorted {
		// Skip to the last element of a run of ties: F_emp(x) counts all
		// observations equal to x.
		if i+1 < n && sorted[i+1] == x {
			continue
		}
		d = math.Max(d, math.Abs(cdf(x)-float64(i+1)/float64(n)))
	}
	return d
}
