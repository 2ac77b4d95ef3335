package model

import (
	"fmt"
	"math"
	"sync"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
)

// This file computes the n → ∞ limits of the cost models (Theorems 1–2,
// §6.3) for Pareto degree distributions, together with the finiteness
// thresholds in α and the divergence rates a_n/b_n of eqs. (47)–(48).

// FinitenessAlpha returns the critical Pareto tail index: the limiting
// cost of the spec (with w(x) = x) is finite iff α strictly exceeds the
// returned value. The threshold follows from the tail decay of the
// composed map: if E[h(ξ(u))] ~ C(1-u)^k as u → 1, then since
// 1 - J(x) ~ x^{1-α} the cost integrand scales as x^{2+k(1-α)-α-1} and
// converges iff α > (k+2)/(k+1) (§4.2, §6.3). The decay order k is
// detected numerically (k ∈ {0, 1, 2} for all paper methods/orders):
//
//	T1+θ_D: 4/3   T2 (θ_A/θ_D/RR): 3/2   E1+θ_D: 3/2
//	T1+θ_A, anything+CRR or uniform, E4 under any order: 2
func FinitenessAlpha(s Spec) (float64, error) {
	hxi, err := s.hxi()
	if err != nil {
		return 0, err
	}
	k, err := tailDecayOrder(hxi)
	if err != nil {
		return 0, err
	}
	return (k + 2) / (k + 1), nil
}

// tailDecayOrder estimates k with hxi(u) ~ C(1-u)^k near u = 1, by
// log-ratio between two probe points. All paper h∘ξ compositions are
// polynomials in u, so k is a small non-negative integer and the
// estimate is clean; the value is rounded to the nearest integer and
// validated.
func tailDecayOrder(hxi func(float64) float64) (float64, error) {
	const e1, e2 = 1e-3, 1e-5
	v1, v2 := hxi(1-e1), hxi(1-e2)
	if v2 < 0 || v1 < 0 {
		return 0, fmt.Errorf("model: composed map is negative near u=1")
	}
	if v2 > 1e-12 && math.Abs(v1-v2)/math.Max(v2, 1e-300) < 0.2 {
		return 0, nil // tends to a positive constant
	}
	if v1 == 0 || v2 == 0 {
		// Identically zero tail: decays faster than any polynomial we
		// care about; treat as k=2 (the strongest case in the paper).
		return 2, nil
	}
	k := math.Log(v1/v2) / math.Log(e1/e2)
	rounded := math.Round(k)
	if math.Abs(k-rounded) > 0.1 || rounded < 0 || rounded > 8 {
		return 0, fmt.Errorf("model: tail decay order %v is not a small integer", k)
	}
	return rounded, nil
}

// Limit returns lim_{n→∞} E[c_n(M, θ)|D_n] for a Pareto(α, β) degree
// distribution (Theorem 2 / eq. 29): +Inf when α is at or below the
// spec's finiteness threshold, otherwise the convergent sum evaluated by
// Algorithm 2 over an effectively infinite support.
//
// The Weight field is ignored here: as the paper shows (§7.4), all
// admissible w(x) — w₁ and the √m̄-capped w₂ included — share the same
// limit, that of w(x) = x.
//
// A limit is a pure function of (method, order, α, β) and a finite one
// costs up to a second of Algorithm 2, so results are memoized for the
// life of the process; concurrent callers of one key wait for a single
// evaluation.
func Limit(s Spec, p degseq.Pareto) (float64, error) {
	key := limitKey{s.Method, s.Order, math.Float64bits(p.Alpha), math.Float64bits(p.Beta)}
	limitMemo.Lock()
	e := limitMemo.m[key]
	if e == nil {
		e = new(limitEntry)
		limitMemo.m[key] = e
	}
	limitMemo.Unlock()
	e.once.Do(func() { e.v, e.err = limit(s, p) })
	return e.v, e.err
}

type limitKey struct {
	method      listing.Method
	order       order.Kind
	alpha, beta uint64 // math.Float64bits
}

type limitEntry struct {
	once sync.Once
	v    float64
	err  error
}

var limitMemo = struct {
	sync.Mutex
	m map[limitKey]*limitEntry
}{m: map[limitKey]*limitEntry{}}

// limit evaluates Limit without the memo.
func limit(s Spec, p degseq.Pareto) (float64, error) {
	s.Weight = nil // limits are weight-independent; use w(x) = x
	crit, err := FinitenessAlpha(s)
	if err != nil {
		return 0, err
	}
	if p.Alpha <= crit {
		return math.Inf(1), nil
	}
	// Far enough into the tail that the remaining mass contributes less
	// than ~1e-9 relative: the integrand decays like x^{1+k-(k+1)α} with
	// α > (k+2)/(k+1), i.e. strictly faster than 1/x. Pick the horizon
	// by how close α sits to the threshold.
	margin := p.Alpha - crit
	horizon := math.Pow(10, math.Min(17, 4+3/margin))
	cdf := func(x float64) float64 {
		if x < 1 {
			return 0
		}
		if x < 1<<52 {
			x = math.Floor(x)
		}
		return p.ContinuousCDF(x)
	}
	return QuickCost(s, cdf, horizon, 1e-5)
}

// ScalingT1 returns a_n of eq. (47): the divergence rate of
// E[c_n(T1, θ_D)|D_n] under root truncation when the limit is infinite,
// i.e. E[c_n]/a_n → 1 for α in the listed ranges.
func ScalingT1(alpha float64, n float64) (float64, error) {
	switch {
	case alpha == 4.0/3:
		return math.Log(n), nil
	case alpha > 1 && alpha < 4.0/3:
		return math.Pow(n, 2-1.5*alpha), nil
	case alpha == 1:
		l := math.Log(n)
		return math.Sqrt(n) / (l * l), nil
	case alpha > 0 && alpha < 1:
		return math.Pow(n, 1-alpha/2), nil
	default:
		return 0, fmt.Errorf("model: a_n defined only for 0 < α <= 4/3, got %v", alpha)
	}
}

// ScalingE1 returns b_n of eq. (48): the divergence rate of
// E[c_n(E1, θ_D)|D_n] under root truncation.
func ScalingE1(alpha float64, n float64) (float64, error) {
	switch {
	case alpha == 1.5:
		return math.Log(n), nil
	case alpha > 1 && alpha < 1.5:
		return math.Pow(n, 1.5-alpha), nil
	case alpha == 1:
		return math.Sqrt(n) / math.Log(n), nil
	case alpha > 0 && alpha < 1:
		return math.Pow(n, 1-alpha/2), nil
	default:
		return 0, fmt.Errorf("model: b_n defined only for 0 < α <= 1.5, got %v", alpha)
	}
}
