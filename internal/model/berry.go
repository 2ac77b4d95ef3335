package model

import (
	"fmt"
	"math"

	"trilist/internal/degseq"
	"trilist/internal/stats"
)

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
