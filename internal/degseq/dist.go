// Package degseq implements the degree-distribution machinery of the
// paper's stochastic graph model (§1.2, §3.1): discretized Pareto
// distributions F(x) = 1 - (1 + ⌊x⌋/β)^{-α}, truncated versions
// F_n(x) = F(x)/F(t_n) with root (t_n = √n) or linear (t_n = n-1)
// truncation, and inverse-CDF sampling of iid degree sequences D_n.
// (The Erdős–Gallai graphicality test and the AMRC check of Definition 1
// are test oracles in the package's test files.)
package degseq

import (
	"fmt"
	"math"

	"trilist/internal/stats"
)

// Dist is a probability distribution on the positive integers
// {1, 2, 3, ...}, the degree law D ~ F(x) of the paper.
//
// CDF must be non-decreasing with CDF(x) = 0 for x < 1 and CDF(x) → 1 as
// x → ∞ (or CDF(Max()) = 1 for bounded support).
type Dist interface {
	// CDF returns P(D <= x).
	CDF(x int64) float64
	// PMF returns P(D = x).
	PMF(x int64) float64
	// Quantile returns the smallest x with CDF(x) >= u, for u in (0,1].
	Quantile(u float64) int64
	// Max returns the largest value in the support, or math.MaxInt64 for
	// unbounded support.
	Max() int64
	// Mean returns E[D], possibly +Inf.
	Mean() float64
}

// Pareto is the paper's discretized Pareto distribution
//
//	F(x) = 1 - (1 + ⌊x⌋/β)^{-α},  x ∈ {1, 2, ...},
//
// obtained by rounding up draws from the continuous Pareto
// F*(x) = 1 - (1 + x/β)^{-α} on [0, ∞) (§7.1). The tail index α controls
// heaviness; the paper's experiments keep β = 30(α-1) so that E[D] ≈ 30.5
// across α.
type Pareto struct {
	Alpha float64
	Beta  float64
}

// NewPareto returns a Pareto distribution, validating the parameters.
func NewPareto(alpha, beta float64) (Pareto, error) {
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return Pareto{}, fmt.Errorf("degseq: Pareto alpha must be positive and finite, got %v", alpha)
	}
	if !(beta > 0) || math.IsInf(beta, 1) {
		return Pareto{}, fmt.Errorf("degseq: Pareto beta must be positive and finite, got %v", beta)
	}
	return Pareto{Alpha: alpha, Beta: beta}, nil
}

// StandardPareto returns the paper's evaluation family: shape alpha with
// β = 30(α-1), which keeps E[D] ≈ 30.5 after discretization (§7.3).
// It panics if alpha <= 1, where that β would be non-positive; callers
// exploring α ≤ 1 must pick β explicitly.
func StandardPareto(alpha float64) Pareto {
	if alpha <= 1 {
		panic(fmt.Sprintf("degseq: StandardPareto requires alpha > 1, got %v", alpha))
	}
	return Pareto{Alpha: alpha, Beta: 30 * (alpha - 1)}
}

// ContinuousCDF evaluates the underlying continuous Pareto F*(x) on real x.
func (p Pareto) ContinuousCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Pow(1+x/p.Beta, -p.Alpha)
}

// CDF returns P(D <= x) for the discretized distribution.
func (p Pareto) CDF(x int64) float64 {
	if x < 1 {
		return 0
	}
	return p.ContinuousCDF(float64(x))
}

// PMF returns P(D = x) = F*(x) - F*(x-1).
func (p Pareto) PMF(x int64) float64 {
	if x < 1 {
		return 0
	}
	return p.ContinuousCDF(float64(x)) - p.ContinuousCDF(float64(x-1))
}

// Quantile returns the smallest integer k >= 1 with CDF(k) >= u.
func (p Pareto) Quantile(u float64) int64 {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		return math.MaxInt64
	}
	// Solve 1 - (1+k/β)^{-α} >= u  ⇔  k >= β((1-u)^{-1/α} - 1).
	x := p.Beta * (math.Pow(1-u, -1/p.Alpha) - 1)
	k := int64(math.Ceil(x))
	if k < 1 {
		k = 1
	}
	// Guard against floating-point edge: ensure the inequality holds.
	// Each guard evaluates a CDF, i.e. a math.Pow, but can only move k
	// when u lies within rounding error of CDF(k-1) or CDF(k); so it
	// runs only when a cheap lower bound on that gap fails to clear the
	// rounding error by far. With s = 1-u = (1+x/β)^{-α}:
	//   u - F(j) = s((1+d)^α - 1) ≥ s·α·d/(1+d),  d = (x-j)/(β+j), j < x;
	//   F(k) - u = s(1 - (1+d)^{-α}) ≥ s·α·d/(1+d+α·d),  d = (k-x)/(β+x), k > x.
	// The slack exceeds, by a wide margin, the error of the computed x
	// and of the CDF comparisons (a few ulps of 1, grown by at most α).
	s, slack := 1-u, 0x1p-40*(1+p.Alpha)
	if d := (x - float64(k-1)) / (p.Beta + float64(k-1)); !(s*p.Alpha*d/(1+d) > slack) {
		for k > 1 && p.CDF(k-1) >= u {
			k--
		}
	}
	if d := (float64(k) - x) / (p.Beta + x); !(s*p.Alpha*d/(1+d+p.Alpha*d) > slack) {
		for p.CDF(k) < u {
			k++
		}
	}
	return k
}

// Max reports unbounded support.
func (p Pareto) Max() int64 { return math.MaxInt64 }

// Mean returns E[D] = Σ_{k>=1} P(D >= k) = Σ_{k>=0} (1+k/β)^{-α}, +Inf
// for α <= 1. The sum is β^α ζ(α, β), a Hurwitz zeta value: the first
// emHead terms are added directly and the rest is paretoTail's
// Euler–Maclaurin closed form, accurate to ~1e-15 relative.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	var sum stats.KahanSum
	for k := 0; k < emHead; k++ {
		sum.Add(math.Pow(1+float64(k)/p.Beta, -p.Alpha))
	}
	sum.Add(paretoTail(p.Alpha, p.Beta))
	return sum.Value()
}

// emHead is how many leading terms Pareto's moment sums add directly
// before paretoTail's Euler–Maclaurin expansion takes over.
const emHead = 32

// emWeights are the Euler–Maclaurin correction weights B_{2j}/(2j)!,
// j = 1..8 (Bernoulli numbers B_2 = 1/6 … B_16 = −3617/510).
var emWeights = [...]float64{
	1.0 / 12,
	-1.0 / 720,
	1.0 / 30240,
	-1.0 / 1209600,
	1.0 / 47900160,
	-691.0 / 1307674368000,
	1.0 / 74724249600,
	-3617.0 / 10670622842880000,
}

// paretoTail returns Σ_{k>=emHead} (1+k/β)^{-s} for s > 1. With
// f(x) = (1+x/β)^{-s} = β^s (β+x)^{-s}, Euler–Maclaurin at N = emHead
// gives the Hurwitz zeta tail
//
//	f(N)·[x/(s−1) + ½ + Σ_j B_{2j}/(2j)!·s(s+1)…(s+2j−2)/x^{2j−1}],  x = β+N:
//
// the integral, the half-term and eight Bernoulli corrections. The first
// omitted correction is about ((s+18)/(2πx))^17·f(N); whenever that ratio
// is not small, f(N) ≤ e^{−Ns/x} is, so the error stays near rounding
// for every s > 1 and β > 0.
func paretoTail(s, beta float64) float64 {
	x := beta + emHead
	fn := math.Pow(1+emHead/beta, -s)
	if fn == 0 {
		return 0 // the corrections below could overflow to Inf·0
	}
	sum := x/(s-1) + 0.5
	r := s / x // s(s+1)…(s+2j−2)/x^{2j−1}, starting at j = 1
	for j, c := range emWeights {
		sum += c * r
		r *= (s + float64(2*j+1)) * (s + float64(2*j+2)) / (x * x)
	}
	return fn * sum
}

// Truncated is the paper's F_n(x) = F(x)/F(t_n): the base distribution
// conditioned on D <= t_n. Degree sequences D_n are drawn iid from it.
type Truncated struct {
	Base Dist
	Tn   int64
	ftn  float64 // F(Tn), cached
}

// NewTruncated truncates base at tn >= 1.
func NewTruncated(base Dist, tn int64) (*Truncated, error) {
	if tn < 1 {
		return nil, fmt.Errorf("degseq: truncation point must be >= 1, got %d", tn)
	}
	f := base.CDF(tn)
	if f <= 0 {
		return nil, fmt.Errorf("degseq: base distribution has zero mass on [1,%d]", tn)
	}
	return &Truncated{Base: base, Tn: tn, ftn: f}, nil
}

// Truncation selects t_n as a function of graph size n (§3.1).
type Truncation int

const (
	// RootTruncation sets t_n = ⌊√n⌋, which deterministically keeps the
	// max degree at most √n and hence the graph AMRC.
	RootTruncation Truncation = iota
	// LinearTruncation sets t_n = n - 1, the loosest graphic choice.
	LinearTruncation
)

func (t Truncation) String() string {
	switch t {
	case RootTruncation:
		return "root"
	case LinearTruncation:
		return "linear"
	default:
		return fmt.Sprintf("Truncation(%d)", int(t))
	}
}

// Tn returns the truncation point for graph size n.
func (t Truncation) Tn(n int64) int64 {
	switch t {
	case RootTruncation:
		tn := int64(math.Sqrt(float64(n)))
		// Correct floating-point rounding in either direction.
		for (tn+1)*(tn+1) <= n {
			tn++
		}
		for tn > 1 && tn*tn > n {
			tn--
		}
		if tn < 1 {
			tn = 1
		}
		return tn
	case LinearTruncation:
		if n < 2 {
			return 1
		}
		return n - 1
	default:
		panic(fmt.Sprintf("degseq: unknown truncation %d", int(t)))
	}
}

// TruncateFor truncates base at t_n chosen by the rule for graph size n.
func TruncateFor(base Dist, rule Truncation, n int64) (*Truncated, error) {
	return NewTruncated(base, rule.Tn(n))
}

// CDF returns P(D_n <= x) = F(x)/F(t_n) clipped at 1.
func (t *Truncated) CDF(x int64) float64 {
	if x >= t.Tn {
		return 1
	}
	return t.Base.CDF(x) / t.ftn
}

// PMF returns P(D_n = x).
func (t *Truncated) PMF(x int64) float64 {
	if x < 1 || x > t.Tn {
		return 0
	}
	return (t.Base.CDF(x) - t.Base.CDF(x-1)) / t.ftn
}

// EachPMF calls fn(x, d.PMF(x)) for x = 1..d.Max() in order; d must
// have finite support. A *Truncated walk carries each base CDF value on
// to the next x, so it evaluates one base CDF per point instead of
// PMF's two, and every value is still bitwise d.PMF(x).
func EachPMF(d Dist, fn func(x int64, p float64)) {
	t, ok := d.(*Truncated)
	if !ok {
		for x, n := int64(1), d.Max(); x <= n; x++ {
			fn(x, d.PMF(x))
		}
		return
	}
	prev := t.Base.CDF(0)
	for x := int64(1); x <= t.Tn; x++ {
		cur := t.Base.CDF(x)
		fn(x, (cur-prev)/t.ftn)
		prev = cur
	}
}

// Quantile returns the smallest x <= t_n with CDF(x) >= u.
func (t *Truncated) Quantile(u float64) int64 {
	if u <= 0 {
		return 1
	}
	k := t.Base.Quantile(u * t.ftn)
	if k > t.Tn {
		k = t.Tn
	}
	return k
}

// Max returns the truncation point.
func (t *Truncated) Max() int64 { return t.Tn }

// Mean returns E[D_n], computed by blocked summation of the survival
// function: E[D_n] = Σ_{k=0}^{t_n-1} (1 - F(k)/F(t_n)).
func (t *Truncated) Mean() float64 {
	var sum stats.KahanSum
	// Geometric blocking: exact for the head, block-averaged for the tail
	// with endpoints that bracket the monotone summand.
	var k int64
	for k = 0; k < t.Tn; {
		jump := k / 1024
		if jump < 1 {
			jump = 1
		}
		if k+jump > t.Tn {
			jump = t.Tn - k
		}
		// Survival is monotone decreasing in k: use the trapezoid of the
		// block endpoints, which for our accuracy targets (<1e-6 with
		// 1/1024 blocks) is ample.
		s0 := 1 - t.CDF(k)
		s1 := 1 - t.CDF(k+jump-1)
		sum.Add(float64(jump) * (s0 + s1) / 2)
		k += jump
	}
	return sum.Value()
}

// Empirical is a distribution given by an explicit PMF on {1..len(p)}.
// It exists mainly for tests and for modeling measured degree histograms.
type Empirical struct {
	pmf []float64 // pmf[i] = P(D = i+1)
	cdf []float64 // cdf[i] = P(D <= i+1)
}

// NewEmpirical builds a distribution from weights over {1..len(w)}.
// Weights must be non-negative with a positive sum; they are normalized.
func NewEmpirical(w []float64) (*Empirical, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("degseq: empty weight vector")
	}
	var tot float64
	for i, x := range w {
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("degseq: weight[%d] = %v is invalid", i, x)
		}
		tot += x
	}
	if tot <= 0 {
		return nil, fmt.Errorf("degseq: weights sum to zero")
	}
	e := &Empirical{pmf: make([]float64, len(w)), cdf: make([]float64, len(w))}
	var run float64
	for i, x := range w {
		e.pmf[i] = x / tot
		run += x / tot
		e.cdf[i] = run
	}
	e.cdf[len(w)-1] = 1 // kill rounding drift
	return e, nil
}

// FromHistogram builds the empirical distribution from a degree
// histogram (counts[d] = number of nodes with degree d, as produced by
// graph.DegreeHistogram). Isolated nodes (counts[0]) are excluded: a
// Dist lives on {1, 2, ...}, and degree-0 nodes touch no triangle and
// contribute zero cost to every method.
func FromHistogram(counts []int64) (*Empirical, error) {
	max := 0
	for d, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("degseq: histogram count[%d] = %d is negative", d, c)
		}
		if d > 0 && c > 0 {
			max = d
		}
	}
	if max == 0 {
		return nil, fmt.Errorf("degseq: histogram has no nodes of degree >= 1")
	}
	w := make([]float64, max)
	for d := 1; d <= max; d++ {
		if d < len(counts) {
			w[d-1] = float64(counts[d])
		}
	}
	return NewEmpirical(w)
}

// CDF returns P(D <= x).
func (e *Empirical) CDF(x int64) float64 {
	if x < 1 {
		return 0
	}
	if x > int64(len(e.cdf)) {
		return 1
	}
	return e.cdf[x-1]
}

// PMF returns P(D = x).
func (e *Empirical) PMF(x int64) float64 {
	if x < 1 || x > int64(len(e.pmf)) {
		return 0
	}
	return e.pmf[x-1]
}

// Quantile returns the smallest x with CDF(x) >= u.
func (e *Empirical) Quantile(u float64) int64 {
	if u <= 0 {
		return 1
	}
	lo, hi := 0, len(e.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return int64(lo + 1)
}

// Max returns the top of the support.
func (e *Empirical) Max() int64 { return int64(len(e.pmf)) }

// Mean returns E[D].
func (e *Empirical) Mean() float64 {
	var sum stats.KahanSum
	for i, p := range e.pmf {
		sum.Add(float64(i+1) * p)
	}
	return sum.Value()
}

// SecondMoment returns E[D²]. Always finite: the support is bounded.
func (e *Empirical) SecondMoment() float64 {
	var sum stats.KahanSum
	for i, p := range e.pmf {
		x := float64(i + 1)
		sum.Add(x * x * p)
	}
	return sum.Value()
}
