// Package model implements the paper's analytical cost machinery
// (§3–§6, §7.1): the per-method cost shape functions h(x) of Table 4, the
// spread distribution J(x) (eq. 18, Prop. 5), the limiting permutation
// maps ξ(u) (§5.3), the exact discrete cost model (eq. 50), the fast
// geometric-jump evaluation of it (Algorithm 2), the continuous
// approximation (eq. 49), asymptotic limits with finiteness thresholds
// (§4.2, §6.3), and the scaling rates a_n/b_n (eqs. 47–48). The
// finite-n expected out-degree models (eqs. 11–14), the standalone
// spread, the Definition 5 kernel diagnostics and Berry et al.'s eq. (2)
// are test oracles in the package's _test.go files.
//
// Every model value is the *per-node* expected cost E[c_n(M, θ)|D_n]
// (eq. 1); multiply by n to compare with total operation counts such as
// listing.ModelCost.
package model

import (
	"fmt"
	"math"

	"trilist/internal/listing"
)

// G is the paper's g(x) = x² - x, the quadratic degree factor common to
// all four core methods (Prop. 4).
func G(x float64) float64 { return x*x - x }

// H returns the cost shape function h(x) of Table 4 for the given
// method, extended to all 18 methods via the equivalence classes of
// §2.2–§2.3 (costs compose as sums of the three vertex-iterator terms
// h_T1(x) = x²/2, h_T2(x) = x(1-x), h_T3(x) = (1-x)²/2):
//
//	T1/T4: x²/2             T2/T5: x(1-x)        T3/T6: (1-x)²/2
//	E1/E2: x(2-x)/2         E3/E5: (1-x²)/2      E4/E6: (x²+(1-x)²)/2
//	L1/L3: x(1-x)           L2/L6: x²/2          L4/L5: (1-x)²/2
func H(m listing.Method) func(float64) float64 {
	switch m {
	case listing.T1, listing.T4, listing.L2, listing.L6:
		return hT1
	case listing.T2, listing.T5, listing.L1, listing.L3:
		return hT2
	case listing.T3, listing.T6, listing.L4, listing.L5:
		return hT3
	case listing.E1, listing.E2:
		return func(x float64) float64 { return hT1(x) + hT2(x) } // x(2-x)/2
	case listing.E3, listing.E5:
		return func(x float64) float64 { return hT3(x) + hT2(x) } // (1-x²)/2
	case listing.E4, listing.E6:
		return func(x float64) float64 { return hT1(x) + hT3(x) } // (x²+(1-x)²)/2
	default:
		panic(fmt.Sprintf("model: no h for method %v", m))
	}
}

func hT1(x float64) float64 { return x * x / 2 }
func hT2(x float64) float64 { return x * (1 - x) }
func hT3(x float64) float64 { return (1 - x) * (1 - x) / 2 }

// Weight is the neighbor-weighting function w(x) of eq. (12). The paper
// proves its optimality and comparison results for any positive
// monotonically non-decreasing w with g/w monotonic (§6.1).
type Weight func(float64) float64

// WIdentity is w₁(x) = x, the exact asymptotic weight (eq. 11).
func WIdentity(x float64) float64 { return x }

// WCap returns w₂(x) = min(x, a): the finite-n correction of §7.4 that
// curbs over-estimation of edges delivered to high-degree nodes in
// unconstrained graphs (the paper uses a = √m̄).
func WCap(a float64) Weight {
	return func(x float64) float64 { return math.Min(x, a) }
}
