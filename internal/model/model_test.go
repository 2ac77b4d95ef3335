package model

import (
	"math"
	"slices"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

func close(a, b, tol float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestHTable4(t *testing.T) {
	cases := []struct {
		m    listing.Method
		x    float64
		want float64
	}{
		{listing.T1, 0.6, 0.18},     // x²/2
		{listing.T2, 0.25, 0.1875},  // x(1-x)
		{listing.T3, 0.25, 0.28125}, // (1-x)²/2
		{listing.E1, 0.5, 0.375},    // x(2-x)/2
		{listing.E3, 0.5, 0.375},    // (1-x²)/2
		{listing.E4, 0.5, 0.25},     // (x²+(1-x)²)/2
		{listing.E4, 0, 0.5},        // endpoints
		{listing.L2, 1, 0.5},        // = h_T1
		{listing.L1, 0.5, 0.25},     // = h_T2
		{listing.L4, 0, 0.5},        // = h_T3
	}
	for _, c := range cases {
		if got := H(c.m)(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("h_%v(%v) = %v, want %v", c.m, c.x, got, c.want)
		}
	}
}

func TestHEquivalenceClasses(t *testing.T) {
	// T4-T6 repeat T1-T3; E2=E1, E5=E3, E6=E4; symmetry h_T2(x)=h_T2(1-x);
	// reversal pairs h_T1(x) = h_T3(1-x) and h_E1(x) = h_E3(1-x).
	for _, x := range []float64{0, 0.1, 0.33, 0.5, 0.77, 1} {
		if H(listing.T4)(x) != H(listing.T1)(x) ||
			H(listing.T5)(x) != H(listing.T2)(x) ||
			H(listing.T6)(x) != H(listing.T3)(x) {
			t.Fatal("T4-T6 h mismatch")
		}
		if H(listing.E2)(x) != H(listing.E1)(x) ||
			H(listing.E5)(x) != H(listing.E3)(x) ||
			H(listing.E6)(x) != H(listing.E4)(x) {
			t.Fatal("SEI equivalence h mismatch")
		}
		if math.Abs(H(listing.T2)(x)-H(listing.T2)(1-x)) > 1e-15 {
			t.Fatal("h_T2 not symmetric")
		}
		if math.Abs(H(listing.T1)(x)-H(listing.T3)(1-x)) > 1e-15 {
			t.Fatal("h_T1(x) != h_T3(1-x)")
		}
		if math.Abs(H(listing.E1)(x)-H(listing.E3)(1-x)) > 1e-15 {
			t.Fatal("h_E1(x) != h_E3(1-x)")
		}
		// Prop. 2 shape: h_E1 = h_T1 + h_T2.
		if math.Abs(H(listing.E1)(x)-(H(listing.T1)(x)+H(listing.T2)(x))) > 1e-15 {
			t.Fatal("h_E1 != h_T1 + h_T2")
		}
	}
}

func TestUniformMapExpectations(t *testing.T) {
	// §5.3: E[h(U)] = 1/6 for both vertex iterators and 1/3 for both
	// edge iterators.
	for _, c := range []struct {
		m    listing.Method
		want float64
	}{
		{listing.T1, 1.0 / 6}, {listing.T2, 1.0 / 6},
		{listing.E1, 1.0 / 3}, {listing.E4, 1.0 / 3},
	} {
		f, err := OrderMap(order.KindUniform, H(c.m))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []float64{0, 0.3, 0.9} {
			if got := f(u); math.Abs(got-c.want) > 1e-9 {
				t.Errorf("E[h_%v(U)] = %v at u=%v, want %v", c.m, got, u, c.want)
			}
		}
	}
}

func TestOrderMapShapes(t *testing.T) {
	h := H(listing.T1) // x²/2
	asc, _ := OrderMap(order.KindAscending, h)
	desc, _ := OrderMap(order.KindDescending, h)
	rr, _ := OrderMap(order.KindRoundRobin, h)
	crr, _ := OrderMap(order.KindCRR, h)
	if asc(0.4) != h(0.4) || desc(0.4) != h(0.6) {
		t.Fatal("asc/desc maps wrong")
	}
	// RR at u: (h((1-u)/2)+h((1+u)/2))/2; T1 h gives ((1-u)²+(1+u)²)/16
	// = (1+u²)/8.
	u := 0.4
	if got, want := rr(u), (1+u*u)/8; math.Abs(got-want) > 1e-12 {
		t.Fatalf("RR map = %v, want %v", got, want)
	}
	// CRR = RR complement: crr(u) = rr(1-u).
	if math.Abs(crr(u)-rr(1-u)) > 1e-12 {
		t.Fatal("CRR != complement of RR")
	}
	if math.Abs(ComplementMap(rr)(u)-rr(1-u)) > 1e-15 {
		t.Fatal("ComplementMap wrong")
	}
	if math.Abs(ReverseH(h)(u)-h(1-u)) > 1e-15 {
		t.Fatal("ReverseH wrong")
	}
	if _, err := OrderMap(order.KindDegenerate, h); err == nil {
		t.Fatal("degenerate order should have no limit map")
	}
	if _, err := OrderMap(order.Kind(77), h); err == nil {
		t.Fatal("unknown order accepted")
	}
}

// paperPareto15 is the Table 5 configuration: α = 1.5, β = 30(α-1) = 15.
func paperPareto15() degseq.Pareto { return degseq.StandardPareto(1.5) }

func TestDiscreteCostMatchesTable5(t *testing.T) {
	// Paper Table 5, column "F(x) in (50)": T1 + θ_D, α = 1.5, linear
	// truncation. Values: n=10³ → 142.85, n=10⁴ → 241.15, n=10⁷ → 346.92.
	spec := Spec{Method: listing.T1, Order: order.KindDescending}
	p := paperPareto15()
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{1e3, 142.85},
		{1e4, 241.15},
		{1e7, 346.92},
	} {
		tr, err := degseq.TruncateFor(p, degseq.LinearTruncation, c.n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DiscreteCost(spec, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !close(got, c.want, 0.002) {
			t.Errorf("n=%d: (50) = %v, paper reports %v", c.n, got, c.want)
		}
	}
}

func TestQuickCostMatchesDiscreteExactly(t *testing.T) {
	// Algorithm 2 with ε = 1/t_n reproduces eq. (50) exactly.
	p := paperPareto15()
	for _, spec := range []Spec{
		{Method: listing.T1, Order: order.KindDescending},
		{Method: listing.T2, Order: order.KindRoundRobin},
		{Method: listing.E1, Order: order.KindAscending},
		{Method: listing.E4, Order: order.KindCRR},
		{Method: listing.T1, Order: order.KindUniform},
	} {
		tn := int64(2000)
		tr, _ := degseq.NewTruncated(p, tn)
		exact, err := DiscreteCost(spec, tr)
		if err != nil {
			t.Fatal(err)
		}
		quick, err := QuickCost(spec, ParetoTruncatedCDF(p, float64(tn)), float64(tn), 1/float64(tn))
		if err != nil {
			t.Fatal(err)
		}
		if !close(exact, quick, 1e-9) {
			t.Errorf("%v: exact %v vs quick %v", spec, exact, quick)
		}
	}
}

func TestQuickCostTable5Column(t *testing.T) {
	// Paper Table 5, column "Algorithm 2" (ε = 1e-5): values equal the
	// exact discrete model to the printed precision for n up to 10¹⁰ and
	// extend to n = 10¹⁷ where exact summation is infeasible:
	// n=10⁹ → 354.94, n=10¹⁰ → 355.79, n=10¹⁴ → 356.28, n=10¹⁷ → 356.28.
	spec := Spec{Method: listing.T1, Order: order.KindDescending}
	p := paperPareto15()
	for _, c := range []struct {
		n    float64
		want float64
	}{
		{1e9, 354.94},
		{1e10, 355.79},
		{1e14, 356.28},
		{1e17, 356.28},
	} {
		tn := c.n - 1
		got, err := QuickCost(spec, ParetoTruncatedCDF(p, tn), tn, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		if !close(got, c.want, 0.002) {
			t.Errorf("n=%g: Algorithm 2 = %v, paper reports %v", c.n, got, c.want)
		}
	}
}

func TestContinuousCostTable5Column(t *testing.T) {
	// Paper Table 5, column "F*(x) in (49)": the continuous model runs
	// 1.5-2% above the discrete one. n=10³ → 144.86, n=10⁷ → 353.92,
	// n=10¹⁷ → 363.57.
	spec := Spec{Method: listing.T1, Order: order.KindDescending}
	p := paperPareto15()
	for _, c := range []struct {
		n    float64
		want float64
	}{
		{1e3, 144.86},
		{1e7, 353.92},
		{1e17, 363.57},
	} {
		got, err := ContinuousCost(spec, p, c.n-1, 400000)
		if err != nil {
			t.Fatal(err)
		}
		if !close(got, c.want, 0.004) {
			t.Errorf("n=%g: (49) = %v, paper reports %v", c.n, got, c.want)
		}
	}
	// And the documented 1.5-2% discrete/continuous gap at n = 10⁷.
	tr, _ := degseq.TruncateFor(p, degseq.LinearTruncation, 1e7)
	disc, _ := DiscreteCost(spec, tr)
	cont, _ := ContinuousCost(spec, p, 1e7-1, 400000)
	gap := (cont - disc) / disc
	if gap < 0.01 || gap > 0.03 {
		t.Errorf("continuous/discrete gap = %v, paper reports 1.5-2%%", gap)
	}
}

func TestLimitsMatchPaperInfinityRows(t *testing.T) {
	// The ∞ rows of Tables 5-8:
	//  T1+θ_D, α=1.5 → 356.3 (Tables 5/6/9)
	//  T2+θ_D, α=1.7 → 1307.6 and T2+RR, α=1.7 → 770.4 (Tables 7/10)
	//  T1+θ_D, α=2.1 → 181.5 and T2+RR, α=2.1 → 384.3 (Table 8)
	for _, c := range []struct {
		spec  Spec
		alpha float64
		want  float64
	}{
		{Spec{Method: listing.T1, Order: order.KindDescending}, 1.5, 356.3},
		{Spec{Method: listing.T2, Order: order.KindDescending}, 1.7, 1307.6},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin}, 1.7, 770.4},
		{Spec{Method: listing.T1, Order: order.KindDescending}, 2.1, 181.5},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin}, 2.1, 384.3},
	} {
		got, err := Limit(c.spec, degseq.StandardPareto(c.alpha))
		if err != nil {
			t.Fatal(err)
		}
		if !close(got, c.want, 0.003) {
			t.Errorf("lim %v α=%v = %v, paper reports %v", c.spec, c.alpha, got, c.want)
		}
	}
}

func TestLimitInfiniteBelowThreshold(t *testing.T) {
	// T1+θ_A diverges for α <= 2; T1+θ_D for α <= 4/3; T2 for α <= 1.5;
	// E1+RR for α <= 2 even though E1+θ_D converges at the same α.
	cases := []struct {
		spec  Spec
		alpha float64
		beta  float64
		inf   bool
	}{
		{Spec{Method: listing.T1, Order: order.KindAscending}, 1.9, 27, true},
		{Spec{Method: listing.T1, Order: order.KindAscending}, 2.1, 33, false},
		{Spec{Method: listing.T1, Order: order.KindDescending}, 4.0 / 3, 10, true},
		{Spec{Method: listing.T1, Order: order.KindDescending}, 1.4, 12, false},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin}, 1.5, 15, true},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin}, 1.6, 18, false},
		{Spec{Method: listing.E1, Order: order.KindRoundRobin}, 1.8, 24, true},
		{Spec{Method: listing.E1, Order: order.KindDescending}, 1.8, 24, false},
		{Spec{Method: listing.E4, Order: order.KindCRR}, 1.95, 28.5, true},
		{Spec{Method: listing.E4, Order: order.KindCRR}, 2.05, 31.5, false},
	}
	for _, c := range cases {
		got, err := Limit(c.spec, degseq.Pareto{Alpha: c.alpha, Beta: c.beta})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(got, 1) != c.inf {
			t.Errorf("lim %v α=%v = %v, want infinite=%v", c.spec, c.alpha, got, c.inf)
		}
	}
}

func TestFinitenessThresholds(t *testing.T) {
	// §4.2 and §6.3 critical α values.
	cases := []struct {
		spec Spec
		want float64
	}{
		{Spec{Method: listing.T1, Order: order.KindDescending}, 4.0 / 3},
		{Spec{Method: listing.T1, Order: order.KindAscending}, 2},
		{Spec{Method: listing.T2, Order: order.KindDescending}, 1.5},
		{Spec{Method: listing.T2, Order: order.KindAscending}, 1.5},
		{Spec{Method: listing.T2, Order: order.KindRoundRobin}, 1.5},
		{Spec{Method: listing.E1, Order: order.KindDescending}, 1.5},
		{Spec{Method: listing.E1, Order: order.KindRoundRobin}, 2},
		{Spec{Method: listing.E1, Order: order.KindAscending}, 2},
		{Spec{Method: listing.E4, Order: order.KindCRR}, 2},
		{Spec{Method: listing.E4, Order: order.KindDescending}, 2},
		{Spec{Method: listing.T1, Order: order.KindUniform}, 2},
		{Spec{Method: listing.T2, Order: order.KindCRR}, 2},
		{Spec{Method: listing.T3, Order: order.KindAscending}, 4.0 / 3},
	}
	for _, c := range cases {
		got, err := FinitenessAlpha(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("threshold %v = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestOptimalOrderIsMinimal(t *testing.T) {
	// Theorem 3 corollaries at a finite truncation: θ_D minimizes T1 and
	// E1; RR minimizes T2; CRR minimizes E4 — across the five admissible
	// named orders.
	p := degseq.StandardPareto(1.7)
	tr, _ := degseq.NewTruncated(p, 3000)
	admissible := []order.Kind{
		order.KindAscending, order.KindDescending, order.KindRoundRobin,
		order.KindCRR, order.KindUniform,
	}
	for _, c := range []struct {
		m    listing.Method
		best order.Kind
	}{
		{listing.T1, order.KindDescending},
		{listing.T2, order.KindRoundRobin},
		{listing.E1, order.KindDescending},
		{listing.E4, order.KindCRR},
	} {
		bestCost, err := DiscreteCost(Spec{Method: c.m, Order: c.best}, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range admissible {
			cost, err := DiscreteCost(Spec{Method: c.m, Order: k}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if cost < bestCost-1e-9 {
				t.Errorf("%v: order %v cost %v beats claimed-optimal %v cost %v",
					c.m, k, cost, c.best, bestCost)
			}
		}
	}
}

func TestWorstIsComplementOfBest(t *testing.T) {
	// Corollary 3: the complement of the optimal map is the worst map.
	// At the composed-map level: cost with ComplementMap(best) must be
	// >= cost with every named order.
	p := degseq.StandardPareto(1.8)
	tr, _ := degseq.NewTruncated(p, 2000)
	// For T1 the best is θ_D; its complement is θ_A applied from the
	// descending side — which equals... verify numerically via the map.
	h := H(listing.T1)
	best, _ := OrderMap(order.KindDescending, h)
	worst := ComplementMap(best)
	worstCost := costWithMap(tr, worst)
	for _, k := range []order.Kind{
		order.KindAscending, order.KindDescending, order.KindRoundRobin,
		order.KindCRR, order.KindUniform,
	} {
		m, _ := OrderMap(k, h)
		if c := costWithMap(tr, m); c > worstCost+1e-9 {
			t.Errorf("order %v cost %v exceeds complement-of-best %v", k, c, worstCost)
		}
	}
}

// costWithMap evaluates eq. (50) with an explicit composed map.
func costWithMap(dist degseq.Dist, hxi func(float64) float64) float64 {
	tn := dist.Max()
	var ew float64
	for i := int64(1); i <= tn; i++ {
		ew += float64(i) * dist.PMF(i)
	}
	var cost, j float64
	for i := int64(1); i <= tn; i++ {
		p := dist.PMF(i)
		x := float64(i)
		j += x * p / ew
		cost += G(x) * hxi(math.Min(j, 1)) * p
	}
	return cost
}

func TestTheorem4And5Comparisons(t *testing.T) {
	// Theorem 4: T1+θ_D beats T2+RR (r increasing, w=x). Theorem 5:
	// E1+θ_D beats E4+CRR. And the paper's §1.3 note: T2+RR costs half
	// of E1+θ_D in the limit (eq. 34 vs eq. 35).
	p := degseq.StandardPareto(1.7)
	limT1D, _ := Limit(Spec{Method: listing.T1, Order: order.KindDescending}, p)
	limT2RR, _ := Limit(Spec{Method: listing.T2, Order: order.KindRoundRobin}, p)
	limE1D, _ := Limit(Spec{Method: listing.E1, Order: order.KindDescending}, p)
	limE4C, _ := Limit(Spec{Method: listing.E4, Order: order.KindCRR}, p)
	if !(limT1D < limT2RR) {
		t.Errorf("Theorem 4: T1+θ_D %v should beat T2+RR %v", limT1D, limT2RR)
	}
	if !math.IsInf(limE4C, 1) {
		t.Errorf("E4+CRR should be infinite at α=1.7, got %v", limE4C)
	}
	if !close(limE1D, 2*limT2RR, 0.01) {
		t.Errorf("E1+θ_D %v should be twice T2+RR %v", limE1D, limT2RR)
	}
	// Prop. 2 in the limit: c(E1,ξ_D) = c(T1,ξ_D) + c(T2,ξ_D).
	limT2D, _ := Limit(Spec{Method: listing.T2, Order: order.KindDescending}, p)
	if !close(limE1D, limT1D+limT2D, 0.01) {
		t.Errorf("limit E1 %v != T1 %v + T2 %v", limE1D, limT1D, limT2D)
	}
}

func TestScalingRates(t *testing.T) {
	if a, err := ScalingT1(4.0/3, 1e6); err != nil || !close(a, math.Log(1e6), 1e-12) {
		t.Errorf("a_n at α=4/3: %v, %v", a, err)
	}
	if a, err := ScalingT1(1.2, 1e6); err != nil || !close(a, math.Pow(1e6, 0.2), 1e-12) {
		t.Errorf("a_n at α=1.2: %v, %v", a, err)
	}
	if a, err := ScalingT1(1, 1e6); err != nil || !close(a, 1e3/math.Pow(math.Log(1e6), 2), 1e-12) {
		t.Errorf("a_n at α=1: %v, %v", a, err)
	}
	if a, err := ScalingT1(0.5, 1e6); err != nil || !close(a, math.Pow(1e6, 0.75), 1e-12) {
		t.Errorf("a_n at α=0.5: %v, %v", a, err)
	}
	if _, err := ScalingT1(1.5, 1e6); err == nil {
		t.Error("a_n should reject α > 4/3")
	}
	if b, err := ScalingE1(1.5, 1e6); err != nil || !close(b, math.Log(1e6), 1e-12) {
		t.Errorf("b_n at α=1.5: %v, %v", b, err)
	}
	if b, err := ScalingE1(1.2, 1e6); err != nil || !close(b, math.Pow(1e6, 0.3), 1e-12) {
		t.Errorf("b_n at α=1.2: %v, %v", b, err)
	}
	if b, err := ScalingE1(1, 1e6); err != nil || !close(b, 1e3/math.Log(1e6), 1e-12) {
		t.Errorf("b_n at α=1: %v, %v", b, err)
	}
	// §6.3: T1 grows slower than E1 for α ∈ [1, 1.5); same rate below 1.
	a12, _ := ScalingT1(1.2, 1e8)
	b12, _ := ScalingE1(1.2, 1e8)
	if !(a12 < b12) {
		t.Error("a_n should grow slower than b_n at α=1.2")
	}
	a05, _ := ScalingT1(0.5, 1e8)
	b05, _ := ScalingE1(0.5, 1e8)
	if a05 != b05 {
		t.Error("a_n and b_n should coincide for α < 1")
	}
}

func TestErrorsPropagate(t *testing.T) {
	p := paperPareto15()
	badSpec := Spec{Method: listing.T1, Order: order.KindDegenerate}
	if _, err := DiscreteCost(badSpec, mustTrunc(t, p, 100)); err == nil {
		t.Error("degenerate order accepted by DiscreteCost")
	}
	if _, err := QuickCost(badSpec, ParetoTruncatedCDF(p, 100), 100, 0.01); err == nil {
		t.Error("degenerate order accepted by QuickCost")
	}
	spec := Spec{Method: listing.T1, Order: order.KindDescending}
	if _, err := DiscreteCost(spec, p); err == nil {
		t.Error("unbounded support accepted by DiscreteCost")
	}
	if _, err := QuickCost(spec, ParetoTruncatedCDF(p, 100), 0.5, 0.01); err == nil {
		t.Error("t_n < 1 accepted")
	}
	if _, err := QuickCost(spec, ParetoTruncatedCDF(p, 100), 100, 0); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := ContinuousCost(spec, p, -1, 100); err == nil {
		t.Error("negative t_n accepted by ContinuousCost")
	}
}

func mustTrunc(t *testing.T, p degseq.Pareto, tn int64) *degseq.Truncated {
	t.Helper()
	tr, err := degseq.NewTruncated(p, tn)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSpreadBasics(t *testing.T) {
	tr := mustTrunc(t, paperPareto15(), 500)
	s, err := NewSpread(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != 0 || s.At(500) != 1 || s.At(9999) != 1 {
		t.Fatal("spread endpoints wrong")
	}
	prev := 0.0
	for x := int64(1); x <= 500; x++ {
		v := s.At(x)
		if v < prev-1e-15 {
			t.Fatalf("spread decreases at %d", x)
		}
		prev = v
	}
	// Inspection paradox: J is stochastically larger than F, strictly
	// somewhere: J(x) <= F(x) with gap.
	mid := int64(30)
	if !(s.At(mid) < tr.CDF(mid)) {
		t.Fatal("spread should be size-biased above F")
	}
	if s.MeanW() <= 0 {
		t.Fatal("MeanW not positive")
	}
	if _, err := NewSpread(paperPareto15(), nil); err == nil {
		t.Fatal("unbounded support accepted by NewSpread")
	}
}

func TestParetoSpreadClosedForm(t *testing.T) {
	// Eq. (19) against the discrete spread at a high truncation: the
	// continuous closed form should match the discrete J within ~1%.
	p := degseq.StandardPareto(2.0)
	jc, err := ParetoSpreadCDF(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := mustTrunc(t, p, 200000)
	s, err := NewSpread(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{10, 30, 100, 300, 1000} {
		got, want := s.At(x), jc(float64(x))
		if math.Abs(got-want) > 0.015 {
			t.Errorf("J(%d): discrete %v vs closed form %v", x, got, want)
		}
	}
	if _, err := ParetoSpreadCDF(degseq.Pareto{Alpha: 1, Beta: 10}); err == nil {
		t.Fatal("closed form should require α > 1")
	}
}

func TestSpreadSampleMatchesJ(t *testing.T) {
	// Prop. 5: picking nodes ∝ w(D) yields degrees distributed as J.
	p := degseq.StandardPareto(1.7)
	tr := mustTrunc(t, p, 1000)
	rng := stats.NewRNGFromSeed(2024)
	d := degseq.Sample(tr, 20000, rng.Child())
	s, err := NewSpread(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 30000
	obs := make([]float64, draws)
	src := rng.Child()
	for i := range obs {
		obs[i] = float64(SpreadSample(d, src))
	}
	ks := testkit.KSDistance(obs, func(x float64) float64 {
		return s.At(int64(math.Floor(x)))
	})
	if ks > 0.02 {
		t.Fatalf("KS distance %v between spread samples and J", ks)
	}
}

func TestExpectedOutDegreesBasics(t *testing.T) {
	// Two-node path, ascending labels: node at label 0 has no smaller
	// neighbors; node at label 1 expects all its edges to point down.
	d := []int64{1, 1}
	x := ExpectedOutDegrees(d, nil)
	if x[0] != 0 {
		t.Fatalf("E[X_0] = %v, want 0", x[0])
	}
	if math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("E[X_1] = %v, want 1", x[1])
	}
	q := QFractions(d, nil)
	if q[0] != 0 || math.Abs(q[1]-1) > 1e-12 {
		t.Fatalf("q = %v", q)
	}
}

func TestExpectedOutDegreesSumToM(t *testing.T) {
	// Σ E[X_i] ≈ m: each edge points down exactly once. The eq. (11)
	// approximation preserves this to first order.
	p := degseq.StandardPareto(2.0)
	tr := mustTrunc(t, p, 100)
	rng := stats.NewRNGFromSeed(5)
	d := degseq.Sample(tr, 5000, rng)
	asc := sortedAscending(d)
	byLabel := make([]int64, len(asc))
	copy(byLabel, asc)
	x := ExpectedOutDegrees(byLabel, nil)
	var sum float64
	for _, v := range x {
		sum += v
	}
	m := float64(d.Sum()) / 2
	if math.Abs(sum-m)/m > 0.01 {
		t.Fatalf("Σ E[X_i] = %v, want ≈ m = %v", sum, m)
	}
}

func TestExpectedOutDegreesMatchSimulation(t *testing.T) {
	// Eq. (11) against simulation: generate many graphs realizing one
	// fixed degree sequence, orient ascending, average X_i.
	rng := stats.NewRNGFromSeed(31337)
	p := degseq.StandardPareto(1.7)
	n := 600
	tr, _ := degseq.TruncateFor(p, degseq.RootTruncation, int64(n))
	d := degseq.Sample(tr, n, rng.Child())
	d.MakeEven()
	// Arrange by ascending-degree label order.
	asc := sortedAscending(d)
	byLabel := make([]int64, n)
	copy(byLabel, asc)
	want := ExpectedOutDegrees(byLabel, nil)
	// Simulate.
	got := make([]float64, n)
	const reps = 60
	for r := 0; r < reps; r++ {
		g, _, err := genGraph(d, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		rank, err := order.Rank(g, order.KindAscending, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := orientGraph(g, rank)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			got[rank[v]] += float64(o.OutDeg(rank[v])) / reps
		}
	}
	// Compare the upper half (where degrees are large enough for the
	// relative comparison to be meaningful) in aggregate blocks.
	var gotHi, wantHi float64
	for i := n / 2; i < n; i++ {
		gotHi += got[i]
		wantHi += want[i]
	}
	if math.Abs(gotHi-wantHi)/wantHi > 0.05 {
		t.Fatalf("aggregate E[X_i] upper half: sim %v vs model %v", gotHi, wantHi)
	}
}

func genGraph(d degseq.Sequence, rng *stats.RNG) (*graph.Graph, gen.Report, error) {
	return gen.ResidualDegree(d, rng)
}

func orientGraph(g *graph.Graph, rank []int32) (*digraph.Oriented, error) {
	return digraph.Orient(g, rank)
}

func TestSequenceCostErrors(t *testing.T) {
	if _, err := SequenceCost(nil, hT1, nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := SequenceCost([]int64{1, 2}, nil, nil); err == nil {
		t.Error("nil h accepted")
	}
}

// ReverseMap transforms u ↦ E[h(ξ(u))] into the reversed permutation's
// map (Prop. 7): ξ'(u) = 1 - ξ(u) means E[h(ξ'(u))] = E[h'(ξ(u))] with
// h'(x) = h(1-x). Callers therefore pass h pre-composed; this helper
// exists for the complement, which acts on u instead.
func ReverseH(h func(float64) float64) func(float64) float64 {
	return func(x float64) float64 { return h(1 - x) }
}

// ComplementMap transforms the composed map m(u) = E[h(ξ(u))] into the
// complement permutation's map: ξ”(u) = ξ(1-u) (Prop. 7), so
// E[h(ξ”(u))] = m(1-u). By Corollary 3, if ξ is optimal for a method,
// ξ” is its worst case.
func ComplementMap(m func(float64) float64) func(float64) float64 {
	return func(u float64) float64 { return m(1 - u) }
}

// sortedAscending returns a sorted copy of d: the vector A_n of order
// statistics the paper's permutations act on.
func sortedAscending(d degseq.Sequence) degseq.Sequence {
	a := slices.Clone(d)
	slices.Sort(a)
	return a
}

// rootConstrained reports whether L_n <= √n, the deterministic AMRC
// guarantee of root truncation (Definition 1, §3.1).
func rootConstrained(d degseq.Sequence) bool {
	m := slices.Max(d)
	return m*m <= int64(len(d))
}
