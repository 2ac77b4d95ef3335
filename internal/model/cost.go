package model

import (
	"fmt"
	"math"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// Spec identifies one cost model instance: a listing method, a
// permutation order, and a neighbor weight function.
type Spec struct {
	Method listing.Method
	Order  order.Kind
	// Weight defaults to WIdentity when nil.
	Weight Weight
}

func (s Spec) String() string {
	return fmt.Sprintf("%v+%s", s.Method, s.Order.ShortName())
}

func (s Spec) weight() Weight {
	if s.Weight == nil {
		return WIdentity
	}
	return s.Weight
}

// hxi composes the method's h with the order's limit map.
func (s Spec) hxi() (func(float64) float64, error) {
	return OrderMap(s.Order, H(s.Method))
}

// DiscreteCost evaluates the exact discrete model of eq. (50),
//
//	Σ_{i=1}^{t_n} g(i) · E[h(ξ(J_i))] · p_i,   J_i = Σ_{j<=i} w(j)p_j / Σ_k w(k)p_k,
//
// by streaming over the support of the (finite-support) distribution in
// linear time and O(1) space. The returned value is the per-node expected
// cost E[c_n(M, θ)|D_n] for sufficiently large AMRC graphs (eq. 30).
func DiscreteCost(s Spec, dist degseq.Dist) (float64, error) {
	hxi, err := s.hxi()
	if err != nil {
		return 0, err
	}
	tn := dist.Max()
	if tn == math.MaxInt64 {
		return 0, fmt.Errorf("model: DiscreteCost needs a finite-support (truncated) distribution; use Limit for n → ∞")
	}
	w := s.weight()
	var ew stats.KahanSum
	degseq.EachPMF(dist, func(i int64, p float64) {
		ew.Add(w(float64(i)) * p)
	})
	if ew.Value() <= 0 {
		return 0, fmt.Errorf("model: E[w(D)] = %v is not positive", ew.Value())
	}
	var cost, j stats.KahanSum
	degseq.EachPMF(dist, func(i int64, p float64) {
		if p == 0 {
			return
		}
		x := float64(i)
		j.Add(w(x) * p / ew.Value())
		ji := math.Min(j.Value(), 1)
		cost.Add(G(x) * hxi(ji) * p)
	})
	return cost.Value(), nil
}

// QuickCost implements Algorithm 2: the geometric-jump evaluation of
// eq. (50) in O((1 + log(ε·t_n))/ε) time. Blocks [i, i+⌈εi⌉) are
// collapsed into single terms using the block head as representative and
// the CDF difference as mass; ε = 1/t_n reproduces the exact sum, larger
// ε trades accuracy for speed (Table 5 uses ε = 1e-5 up to t_n = 1e17).
//
// cdf must be the truncated CDF F_n (cdf(t) = 1 for t >= tn); it is
// evaluated at integer-valued float64 arguments, which allows t_n far
// beyond the exactly-representable integer range — block boundaries stay
// meaningful because jumps grow with i.
func QuickCost(s Spec, cdf func(float64) float64, tn float64, eps float64) (float64, error) {
	hxi, err := s.hxi()
	if err != nil {
		return 0, err
	}
	if tn < 1 {
		return 0, fmt.Errorf("model: t_n = %v < 1", tn)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("model: eps = %v outside (0,1)", eps)
	}
	w := s.weight()
	// First pass: E[D_n]-style normalizer E[w(D_n)]. It keeps the first
	// keptBlocks block masses, so the second pass evaluates cdf only past
	// them.
	var ew stats.KahanSum
	var kept []float64
	walkBlocks(cdf, tn, tn, eps, nil, func(i, p float64) {
		ew.Add(w(i) * p)
		if len(kept) < keptBlocks {
			kept = append(kept, p)
		}
	})
	if ew.Value() <= 0 {
		return 0, fmt.Errorf("model: E[w(D)] = %v is not positive", ew.Value())
	}
	// Second pass: accumulate spread J and cost.
	var cost, j stats.KahanSum
	walkBlocks(cdf, tn, tn, eps, kept, func(i, p float64) {
		if p > 0 {
			j.Add(w(i) * p / ew.Value())
			ji := math.Min(j.Value(), 1)
			cost.Add(G(i) * hxi(ji) * p)
		}
	})
	return cost.Value(), nil
}

// keptBlocks caps the block masses QuickCost's first pass keeps for its
// second (8 bytes each, 32 MiB at most): enough for every block of
// Limit's longest walk, about 2.9M blocks to t_n = 1e17 at ε = 1e-5.
const keptBlocks = 1 << 22

// walkBlocks visits Algorithm 2's geometric blocks: for i = 1, 1+⌈ε⌉, …
// while i <= tn, block i covers [i, hi] with hi = min(i+⌈εi⌉−1, clip),
// and visit gets its head i and mass p = cdf(hi) − cdf(i−1). The first
// len(known) blocks take their masses from known instead.
//
// Each block's upper CDF value is carried on as the next block's lower
// one: Go evaluates i+jump−1 as (i+jump)−1, the same float as the next
// block's i−1, so cdf runs once per block and every p is bitwise the
// two-call difference. The carry is keyed by its argument, so a block
// whose lower end is not the previous upper end (after clipping, or
// after the known blocks) evaluates its own.
func walkBlocks(cdf func(float64) float64, tn, clip, eps float64, known []float64, visit func(i, p float64)) {
	carryX, carryF := math.NaN(), 0.0
	for b, i := 0, 1.0; i <= tn; b++ {
		jump := math.Ceil(eps * i)
		if jump < 1 {
			jump = 1
		}
		if b < len(known) {
			visit(i, known[b])
			i += jump
			continue
		}
		hi := math.Min(i+jump-1, clip)
		lo := carryF
		if i-1 != carryX {
			lo = cdf(i - 1)
		}
		up := cdf(hi)
		visit(i, up-lo)
		carryX, carryF = hi, up
		i += jump
	}
}

// ParetoTruncatedCDF returns F_n(x) = F(x)/F(t_n) for the discretized
// Pareto, as a float64-domain CDF suitable for QuickCost (t_n may exceed
// the int64-exact float range).
func ParetoTruncatedCDF(p degseq.Pareto, tn float64) func(float64) float64 {
	f := func(x float64) float64 {
		if x < 1 {
			return 0
		}
		// Discretization floor: exact while representable, asymptotically
		// irrelevant beyond 2^53 where spacing exceeds 1 anyway.
		return p.ContinuousCDF(math.Floor(x))
	}
	ftn := f(tn)
	return func(x float64) float64 {
		if x >= tn {
			return 1
		}
		return f(x) / ftn
	}
}

// ContinuousCost evaluates the continuous approximation of eq. (49),
//
//	∫_0^{t_n} g(x) · E[h(ξ(J_n(x)))] dF*_n(x),
//
// with F*_n(x) = F*(x)/F*(t_n) the *continuous* truncated Pareto. The
// integral is computed on a uniform grid in CDF space (u = F*_n(x)), so
// each panel carries equal probability mass and heavy tails need no
// special casing; J_n accumulates over the same grid. The paper notes
// this model deviates from the discrete one by a persistent 1.5–2%
// (Table 5) — tests pin that gap.
func ContinuousCost(s Spec, p degseq.Pareto, tn float64, panels int) (float64, error) {
	hxi, err := s.hxi()
	if err != nil {
		return 0, err
	}
	if tn <= 0 {
		return 0, fmt.Errorf("model: t_n = %v <= 0", tn)
	}
	if panels < 16 {
		panels = 16
	}
	w := s.weight()
	ftn := p.ContinuousCDF(tn)
	if ftn <= 0 {
		return 0, fmt.Errorf("model: F*(t_n) = %v is not positive", ftn)
	}
	// Survival 1 - F*(t_n), computed directly to avoid cancellation when
	// t_n is enormous (1 - F*(t_n) can be ~1e-24, far below the float64
	// spacing around 1).
	sfn := math.Pow(1+tn/p.Beta, -p.Alpha)
	// Quantile of the truncated continuous Pareto, parameterized by the
	// tail coordinate 1-u: F*(x) = u·F*(t_n) gives
	// x = β(((1-u) + u·s)^{−1/α} − 1) with s = 1 - F*(t_n).
	quantileTail := func(omu float64) float64 {
		q := omu + (1-omu)*sfn
		return p.Beta * (math.Pow(q, -1/p.Alpha) - 1)
	}
	// Integrate in CDF space with the cubic substitution
	// u = 1 - (1-t)³, t uniform: for heavy tails the u-space integrand
	// g(Q(u))·h(·) has an integrable singularity at u → 1 (up to
	// (1-u)^{-2/3} at the α = 1.5 boundary of finite cost), and the
	// substitution's (1-t)² Jacobian makes the t-space integrand bounded,
	// so the midpoint rule converges at full rate again. The tail
	// coordinate (1-u) = (1-t)³ is formed without subtracting from 1.
	cube := func(t float64) float64 { c := 1 - t; return c * c * c }
	dt := 1.0 / float64(panels)
	// First pass: E[w(D_n)] = ∫ w(Q(u)) du by midpoint rule in t. Each
	// panel's quantile is kept for the second pass.
	xs := make([]float64, panels)
	var ew stats.KahanSum
	for k := range xs {
		t0, t1 := float64(k)*dt, float64(k+1)*dt
		du := cube(t0) - cube(t1)
		xs[k] = quantileTail(cube((t0 + t1) / 2))
		ew.Add(w(xs[k]) * du)
	}
	// Second pass: accumulate J and cost on the same grid.
	var cost, j stats.KahanSum
	for k, x := range xs {
		t0, t1 := float64(k)*dt, float64(k+1)*dt
		du := cube(t0) - cube(t1)
		j.Add(w(x) * du / ew.Value())
		ji := math.Min(j.Value(), 1)
		cost.Add(G(x) * hxi(ji) * du)
	}
	return cost.Value(), nil
}
