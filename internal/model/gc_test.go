package model

import (
	"math"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// Tests of the Glivenko-Cantelli machinery of §4.1: Lemma 1 (partial
// sums of functions of order statistics), Lemma 2 (convergence of
// q_i(θ_A) to J(F⁻¹(u))), and the paper's Erlang(2) spread remark for
// exponential-like degrees.

func TestLemma1PartialSums(t *testing.T) {
	// (1/n) Σ_{i<=nu} g(A_ni) → ∫_0^u g(F⁻¹(x)) dx.
	p := degseq.StandardPareto(2.5) // light enough for fast convergence
	tn := int64(2000)
	tr, err := degseq.NewTruncated(p, tn)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNGFromSeed(2718)
	n := 400000
	asc := sortedAscending(degseq.Sample(tr, n, rng))
	for _, u := range []float64{0.25, 0.5, 0.9, 1.0} {
		var lhs stats.KahanSum
		limit := int(math.Floor(float64(n) * u))
		for i := 0; i < limit; i++ {
			lhs.Add(G(float64(asc[i])))
		}
		// RHS: Σ_k g(k)·max(0, min(F_n(k), u) - F_n(k-1)).
		var rhs stats.KahanSum
		for k := int64(1); k <= tn; k++ {
			lo, hi := tr.CDF(k-1), tr.CDF(k)
			if lo >= u {
				break
			}
			rhs.Add(G(float64(k)) * (math.Min(hi, u) - lo))
		}
		got := lhs.Value() / float64(n)
		want := rhs.Value()
		if math.Abs(got-want)/math.Max(want, 1) > 0.03 {
			t.Errorf("u=%v: partial sum %v, integral %v", u, got, want)
		}
	}
}

func TestLemma2QConvergesToSpread(t *testing.T) {
	// Under θ_A, q_{⌈nu⌉} → J(F⁻¹(u)): the fraction of a node's
	// neighbors with smaller label approaches the spread CDF at its
	// degree quantile.
	p := degseq.StandardPareto(1.7)
	tn := int64(300)
	tr, err := degseq.NewTruncated(p, tn)
	if err != nil {
		t.Fatal(err)
	}
	spread, err := NewSpread(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNGFromSeed(314)
	n := 200000
	asc := sortedAscending(degseq.Sample(tr, n, rng))
	byLabel := make([]int64, n)
	copy(byLabel, asc)
	q := QFractions(byLabel, nil)
	for _, u := range []float64{0.2, 0.5, 0.8, 0.95} {
		i := int(math.Ceil(float64(n)*u)) - 1
		want := spread.At(tr.Quantile(u) - 1) // J just below F⁻¹(u)...
		// q_i counts strictly-smaller-position weight; at a degree with
		// an atom, J(F⁻¹(u)) and J(F⁻¹(u)-1) bracket the limit. Accept
		// the bracket.
		hi := spread.At(tr.Quantile(u))
		if q[i] < want-0.02 || q[i] > hi+0.02 {
			t.Errorf("u=%v: q=%v outside [J⁻=%v, J⁺=%v]", u, q[i], want, hi)
		}
	}
}

func TestExponentialDegreesGiveErlang2Spread(t *testing.T) {
	// §4.1: "exponential D produces S ~ Erlang(2)". With geometric
	// degrees (discrete exponential, p small), the w(x)=x spread must
	// approach the Erlang(2) CDF 1-(1+λx)e^{-λx}, λ = -ln(1-p).
	spread, err := NewSpread(geometricDegrees(t, 0.02, 2000), nil) // all but ~e-17 mass
	if err != nil {
		t.Fatal(err)
	}
	lambda := -math.Log1p(-0.02)
	erlang2 := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - (1+lambda*x)*math.Exp(-lambda*x)
	}
	for _, x := range []int64{10, 25, 50, 100, 200, 400} {
		got := spread.At(x)
		want := erlang2(float64(x))
		if math.Abs(got-want) > 0.02 {
			t.Errorf("J(%d) = %v, Erlang(2) = %v", x, got, want)
		}
	}
}

func TestGeometricDegreesAllCostsFinite(t *testing.T) {
	// Light tails: every method/order pair has finite, orderable cost.
	// Verify the optimal-order ranking also holds for geometric degrees
	// (the paper's results require only monotone g/w, not Pareto).
	tr := geometricDegrees(t, 1.0/30, 1500)
	for _, c := range []struct {
		spec Spec
		vs   Spec
	}{
		// optimal vs pessimal per method
		{Spec{Method: listing.T1, Order: order.KindDescending},
			Spec{Method: listing.T1, Order: order.KindAscending}},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin},
			Spec{Method: listing.T2, Order: order.KindCRR}},
	} {
		a, err := DiscreteCost(c.spec, tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DiscreteCost(c.vs, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !(a < b) {
			t.Errorf("%v cost %v should beat %v cost %v", c.spec, a, c.vs, b)
		}
	}
}

// geometricDegrees is the geometric law P(D = k) = p(1-p)^{k-1}
// conditioned on D <= tn: the discrete exponential of §4.1, truncated.
func geometricDegrees(t *testing.T, p float64, tn int) degseq.Dist {
	t.Helper()
	w := make([]float64, tn)
	for k := range w {
		w[k] = p * math.Pow(1-p, float64(k))
	}
	d, err := degseq.NewEmpirical(w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
