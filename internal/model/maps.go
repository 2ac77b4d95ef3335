package model

import (
	"fmt"

	"trilist/internal/order"
)

// A limiting permutation map ξ(u) (Definition 5, §5.1) describes where
// the node at ascending-degree quantile u lands in the label range, as
// n → ∞. All the paper's cost limits depend on ξ only through
// u ↦ E[h(ξ(u))] (Theorem 2), so that composition is what this file
// exposes. The five admissible named orders have the maps of §5.3:
//
//	θ_A:   ξ(u) = u                         (deterministic)
//	θ_D:   ξ(u) = 1-u                       (deterministic)
//	θ_RR:  ξ(u) ∈ {(1-u)/2, (1+u)/2}        each w.p. 1/2
//	θ_CRR: ξ(u) ∈ {u/2, 1-u/2}              each w.p. 1/2
//	θ_U:   ξ(u) ~ Uniform[0,1]              independent of u
//
// The degenerate order is *not* admissible in this framework: its limit
// depends on the realized edge structure, not only on F(x) (§7.5).

// OrderMap returns the composed function u ↦ E[h(ξ(u))] for the given
// named order and cost shape h. It returns an error for KindDegenerate,
// which has no distribution-only limit map.
func OrderMap(kind order.Kind, h func(float64) float64) (func(float64) float64, error) {
	switch kind {
	case order.KindAscending:
		return h, nil
	case order.KindDescending:
		return func(u float64) float64 { return h(1 - u) }, nil
	case order.KindRoundRobin:
		return func(u float64) float64 {
			return (h((1-u)/2) + h((1+u)/2)) / 2
		}, nil
	case order.KindCRR:
		return func(u float64) float64 {
			return (h(u/2) + h(1-u/2)) / 2
		}, nil
	case order.KindUniform:
		// E[h(U)] is independent of u; integrate once. All of the
		// paper's h functions are quadratics, for which composite
		// Simpson is exact, but we use enough panels to cover any
		// integrable h a caller might supply.
		c := integrateSimpson(h, 0, 1, 1<<12)
		return func(float64) float64 { return c }, nil
	case order.KindDegenerate:
		return nil, fmt.Errorf("model: the degenerate order has no distribution-only limit map (§7.5)")
	default:
		return nil, fmt.Errorf("model: unknown order kind %v", kind)
	}
}

// integrateSimpson integrates f over [a,b] with n panels (n rounded up
// to even). Exact for cubics; used where the integrand is smooth.
func integrateSimpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	if n < 2 {
		n = 2
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3
}
