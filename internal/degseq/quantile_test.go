package degseq

import (
	"math"
	"testing"

	"trilist/internal/stats"
)

// referenceQuantile is Pareto.Quantile with both guard loops always
// evaluated: the function before its guards were gated by a cheap gap
// bound, kept to pin that the gating changes no draw.
func referenceQuantile(p Pareto, u float64) int64 {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		return math.MaxInt64
	}
	k := int64(math.Ceil(p.Beta * (math.Pow(1-u, -1/p.Alpha) - 1)))
	if k < 1 {
		k = 1
	}
	for k > 1 && p.CDF(k-1) >= u {
		k--
	}
	for p.CDF(k) < u {
		k++
	}
	return k
}

// referenceTruncatedQuantile is Truncated.Quantile over referenceQuantile.
func referenceTruncatedQuantile(t *Truncated, u float64) int64 {
	if u <= 0 {
		return 1
	}
	return min(referenceQuantile(t.Base.(Pareto), u*t.ftn), t.Tn)
}

// TestParetoQuantileMatchesReference: the gated guards give bitwise the
// draws of the always-evaluated ones, for the base law and both
// truncations, over seeded uniforms and the boundaries: the smallest
// positive u, the largest u below 1 (truncations only), and every CDF
// step value with its two neighbouring floats.
func TestParetoQuantileMatchesReference(t *testing.T) {
	cases := []struct {
		p     Pareto
		draws int
	}{
		{StandardPareto(1.5), 1_000_000},
		{StandardPareto(1.1), 100_000},
		{StandardPareto(2.5), 100_000},
		{Pareto{Alpha: 0.95, Beta: 1}, 100_000},
		{Pareto{Alpha: 8, Beta: 0.3}, 100_000},
	}
	const n = 10000
	// The base law is checked only up to baseMax: closer to 1, the
	// guard loops of both versions step k by one through up to ~10^11
	// values whose CDF rounds to u. The truncations scale u by
	// F(t_n) < 1 and are checked up to the largest u below 1.
	const baseMax = 1 - 0x1p-30
	for _, tc := range cases {
		p := tc.p
		var truncs []*Truncated
		for _, rule := range []Truncation{RootTruncation, LinearTruncation} {
			tr, err := TruncateFor(p, rule, n)
			if err != nil {
				t.Fatal(err)
			}
			truncs = append(truncs, tr)
		}
		checkTruncated := func(u float64) {
			for _, tr := range truncs {
				if got, want := tr.Quantile(u), referenceTruncatedQuantile(tr, u); got != want {
					t.Fatalf("%+v truncated at %d: Quantile(%v) = %d, want %d", p, tr.Tn, u, got, want)
				}
			}
		}
		check := func(u float64) {
			if u <= baseMax {
				if got, want := p.Quantile(u), referenceQuantile(p, u); got != want {
					t.Fatalf("%+v: Quantile(%v) = %d, want %d", p, u, got, want)
				}
			}
			checkTruncated(u)
		}
		around := func(u float64) {
			check(math.Nextafter(u, 0))
			check(u)
			check(math.Nextafter(u, 1))
		}
		check(math.SmallestNonzeroFloat64)
		checkTruncated(math.Nextafter(1, 0))
		for k := int64(1); k <= n; k++ {
			around(p.CDF(k))
			for _, tr := range truncs {
				if k <= tr.Tn {
					around(tr.CDF(k))
				}
			}
		}
		rng := stats.NewRNGFromSeed(45)
		for i := 0; i < tc.draws; i++ {
			check(rng.OpenFloat64())
		}
	}
}

// quantileSink keeps BenchmarkParetoQuantile's draws live.
var quantileSink int64

// BenchmarkParetoQuantile draws from the paper's Pareto(1.5) law, the
// inner loop of degseq.Sample.
func BenchmarkParetoQuantile(b *testing.B) {
	p := StandardPareto(1.5)
	rng := stats.NewRNGFromSeed(1)
	for i := 0; i < b.N; i++ {
		quantileSink += p.Quantile(rng.OpenFloat64())
	}
}
