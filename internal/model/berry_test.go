package model

import (
	"fmt"
	"math"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func TestBerryLimitMatchesEq4(t *testing.T) {
	// §1.3: "(2) captures the same limit" as eq. (4). Evaluate the [9]
	// formulation and our Theorem-2 limit independently and compare.
	for _, alpha := range []float64{1.5, 1.7, 2.1} {
		p := degseq.StandardPareto(alpha)
		berry, err := BerryLimit(p)
		if err != nil {
			t.Fatal(err)
		}
		ours, err := Limit(Spec{Method: listing.T1, Order: order.KindDescending}, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(berry-ours)/ours > 0.005 {
			t.Errorf("α=%v: Berry (2) = %v vs eq. (4) limit = %v", alpha, berry, ours)
		}
	}
}

func TestBerryLimitInfinite(t *testing.T) {
	if v, err := BerryLimit(degseq.Pareto{Alpha: 4.0 / 3, Beta: 10}); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("α=4/3: got %v, %v; want +Inf", v, err)
	}
	if _, err := BerryLimit(degseq.Pareto{Alpha: 0.9, Beta: 10}); err == nil {
		t.Fatal("α <= 1 accepted")
	}
}

func TestBerryLimitMonteCarlo(t *testing.T) {
	// Independent Monte Carlo of E[(Z1²-Z1)Z2Z3·1{min(Z2,Z3)>Z1}]/(2E²[D])
	// at a light tail (α=2.5) where the estimator has manageable
	// variance. Cross-checks the summation implementation.
	p := degseq.StandardPareto(2.5)
	want, err := BerryLimit(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNGFromSeed(808)
	var acc stats.Sample
	const draws = 2000000
	for i := 0; i < draws; i++ {
		z1 := float64(p.Quantile(rng.OpenFloat64()))
		z2 := float64(p.Quantile(rng.OpenFloat64()))
		z3 := float64(p.Quantile(rng.OpenFloat64()))
		v := 0.0
		if math.Min(z2, z3) > z1 {
			v = (z1*z1 - z1) * z2 * z3
		}
		acc.Add(v)
	}
	ed := p.Mean()
	got := acc.Mean() / (2 * ed * ed)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("Monte Carlo (2) = %v vs summed (2) = %v", got, want)
	}
}

func TestProposition3MaxDegreeTail(t *testing.T) {
	// Prop. 3: P(L_n > n^c) → 0 if E[D^{1/c}] < ∞. For Pareto, E[D^{1/c}]
	// is finite iff α > 1/c. Take α = 2.5, c = 1/2 (root): E[D²] < ∞, so
	// the fraction of sequences with L_n > √n must shrink with n. As a
	// contrast, α = 1.2 with c = 1/2 has E[D²] = ∞ and most sequences
	// violate the root bound at these sizes.
	rng := stats.NewRNGFromSeed(606)
	frac := func(alpha, beta float64, n int) float64 {
		p := degseq.Pareto{Alpha: alpha, Beta: beta}
		tr, err := degseq.TruncateFor(p, degseq.LinearTruncation, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		const reps = 60
		for i := 0; i < reps; i++ {
			d := degseq.Sample(tr, n, rng.Child())
			if !rootConstrained(d) {
				bad++
			}
		}
		return float64(bad) / reps
	}
	// Light tail with a small scale (α=4, β=3): n·P(D>√n) ≈ n^{-1}β^α
	// is already tiny at n=2000, and shrinks further by n=32000. Heavy
	// tail (α=1.2, E[D²]=∞): violations are near-certain at these n.
	light1, light2 := frac(4, 3, 2000), frac(4, 3, 32000)
	heavy := frac(1.2, 6, 32000)
	if !(light2 <= light1+0.05) {
		t.Errorf("α=4: violation fraction grew %v -> %v", light1, light2)
	}
	if !(light2 < 0.2) {
		t.Errorf("α=4 at n=32000: violation fraction %v too high", light2)
	}
	if !(heavy > 0.9) {
		t.Errorf("α=1.2: expected near-certain violation, got %v", heavy)
	}
}

// BerryLimit evaluates the prior-art limit of Berry et al. [9] (eq. 2),
//
//	E[(Z1² - Z1)·Z2·Z3·1{min(Z2,Z3) > Z1}] / (2·E²[D]),
//
// for the cost of T1 under the descending order, with Z1, Z2, Z3 iid
// from the Pareto law. Conditioning on Z1 and using independence,
// E[Z2·Z3·1{min > z}] = T(z)² with T(z) = E[D·1{D > z}] = E[D](1-J(z)),
// so the expression collapses to the paper's own eq. (4),
// E[g(D)(1-J(D))²]/2 — the identity this function exists to demonstrate
// (tests confirm it agrees with Limit(T1+θ_D) to high precision while
// being computed from the completely different [9] formulation).
//
// Finite iff α > 4/3, like eq. (4); returns +Inf otherwise.
func BerryLimit(p degseq.Pareto) (float64, error) {
	if p.Alpha <= 1 {
		return 0, fmt.Errorf("model: BerryLimit requires α > 1 (finite E[D])")
	}
	if p.Alpha <= 4.0/3 {
		return math.Inf(1), nil
	}
	// Horizon: integrand ~ z²·z^{-2(α-1)}·z^{-α-1} = z^{3-3α}; with
	// α > 4/3 the tail beyond 10^(4+3/(α-4/3)) is negligible.
	horizon := math.Pow(10, math.Min(17, 4+3/(p.Alpha-4.0/3)))
	return berrySum(p, horizon, 1e-6), nil
}

// berrySum evaluates (2) over Algorithm 2's geometric blocks of width
// ⌈εz⌉ out to horizon, for α > 4/3.
func berrySum(p degseq.Pareto, horizon, eps float64) float64 {
	ed := p.Mean()
	// T(z) = Σ_{y>z} y·P(D=y), accumulated from the tail with geometric
	// blocks. We instead accumulate head partial sums of y·p(y) and
	// subtract: T(z) = E[D] - Σ_{y<=z} y·p(y).
	// Then (2) = Σ_z p(z)(z²-z)T(z)² / (2E[D]²).
	var head stats.KahanSum // Σ_{y<=z} y p(y)
	var out stats.KahanSum
	walkBlocks(p.ContinuousCDF, horizon, math.Inf(1), eps, nil, func(z, pz float64) {
		head.Add(z * pz)
		tz := math.Max(ed-head.Value(), 0)
		out.Add(pz * (z*z - z) * tz * tz)
	})
	return out.Value() / (2 * ed * ed)
}
