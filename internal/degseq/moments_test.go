package degseq

import (
	"math"
	"testing"

	"trilist/internal/stats"
)

// paretoMeanDirect is the direct-sum reference for Pareto.Mean: 2^16
// terms of Σ_{k>=0} (1+k/β)^{-α}, then the midpoint integral for the
// rest. About 6 ms a call; its midpoint tail is the less accurate side
// once β reaches the thousands.
func paretoMeanDirect(p Pareto) float64 {
	var sum stats.KahanSum
	const direct = 1 << 16
	for k := 0; k < direct; k++ {
		sum.Add(math.Pow(1+float64(k)/p.Beta, -p.Alpha))
	}
	// Σ_{k>=direct} (1+k/β)^{-α} ≈ ∫_{direct-1/2}^∞ (1+x/β)^{-α} dx.
	x0 := float64(direct) - 0.5
	sum.Add(p.Beta / (p.Alpha - 1) * math.Pow(1+x0/p.Beta, 1-p.Alpha))
	return sum.Value()
}

// paretoSecondMomentDirect is the direct-sum reference for
// Pareto.SecondMoment: 2^17 terms of Σ_{k>=0} (2k+1)(1+k/β)^{-α}, then
// the midpoint integral of (2x+1)(1+x/β)^{-α}.
func paretoSecondMomentDirect(p Pareto) float64 {
	var sum stats.KahanSum
	const direct = 1 << 17
	for k := 0; k < direct; k++ {
		sum.Add((2*float64(k) + 1) * math.Pow(1+float64(k)/p.Beta, -p.Alpha))
	}
	// With x = β(t-1): 2β² ∫ (t-1) t^{-α} dt + β ∫ t^{-α} dt from t0 on.
	t0 := 1 + (float64(direct)-0.5)/p.Beta
	a, b := p.Alpha, p.Beta
	sum.Add(2*b*b*(math.Pow(t0, 2-a)/(a-2)-math.Pow(t0, 1-a)/(a-1)) + b*math.Pow(t0, 1-a)/(a-1))
	return sum.Value()
}

func relDiff(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestParetoMomentsMatchZeta checks the closed forms against known zeta
// values: β = 1 makes Σ_{k>=0} (1+k)^{-α} = ζ(α), β = ½ makes it
// Σ_{k>=0} (1+2k)^{-α} = (1−2^{-α})ζ(α), and at β = 1
// E[D²] = Σ (2k+1)(1+k)^{-α} = 2ζ(α−1) − ζ(α).
func TestParetoMomentsMatchZeta(t *testing.T) {
	pi2 := math.Pi * math.Pi
	zeta := map[float64]float64{
		2: pi2 / 6,
		3: 1.2020569031595942853997381615114499907649862923405, // Apéry's constant
		4: pi2 * pi2 / 90,
		6: pi2 * pi2 * pi2 / 945,
		8: pi2 * pi2 * pi2 * pi2 / 9450,
	}
	const tol = 1e-14
	for _, a := range []float64{2, 3, 4, 6, 8} {
		if got, want := (Pareto{Alpha: a, Beta: 1}).Mean(), zeta[a]; relDiff(got, want) > tol {
			t.Errorf("β=1, α=%v: Mean = %.17g, ζ(α) = %.17g", a, got, want)
		}
		if got, want := (Pareto{Alpha: a, Beta: 0.5}).Mean(), (1-math.Pow(2, -a))*zeta[a]; relDiff(got, want) > tol {
			t.Errorf("β=½, α=%v: Mean = %.17g, (1−2^-α)ζ(α) = %.17g", a, got, want)
		}
	}
	for _, a := range []float64{3, 4} {
		if got, want := (Pareto{Alpha: a, Beta: 1}).SecondMoment(), 2*zeta[a-1]-zeta[a]; relDiff(got, want) > tol {
			t.Errorf("β=1, α=%v: SecondMoment = %.17g, 2ζ(α−1)−ζ(α) = %.17g", a, got, want)
		}
	}
}

// TestParetoMomentsMatchDirectSums compares the closed forms with the
// direct sums on a grid covering the planner's moment-matched tail
// fits: those always have α > 2 and β = c₁(α−1) with c₁ = E[D] − ½ ≥ ½,
// here for mean degrees up to about 1000. The paper's own β = 30(α−1)
// family is the c₁ = 30 column.
func TestParetoMomentsMatchDirectSums(t *testing.T) {
	const tol = 1e-12
	for _, a := range []float64{2.02, 2.1, 2.5, 3, 4.5, 8, 20, 60, 1000} {
		for _, c1 := range []float64{0.5, 1.5, 5, 30, 150, 1000} {
			p := Pareto{Alpha: a, Beta: c1 * (a - 1)}
			if got, want := p.Mean(), paretoMeanDirect(p); relDiff(got, want) > tol {
				t.Errorf("α=%v β=%v: Mean = %.17g, direct sum %.17g (rel %.2g)", p.Alpha, p.Beta, got, want, relDiff(got, want))
			}
			if got, want := p.SecondMoment(), paretoSecondMomentDirect(p); relDiff(got, want) > tol {
				t.Errorf("α=%v β=%v: SecondMoment = %.17g, direct sum %.17g (rel %.2g)", p.Alpha, p.Beta, got, want, relDiff(got, want))
			}
		}
	}
	// Heavier tails than any fit, where only the mean is finite.
	for _, a := range []float64{1.05, 1.3, 1.5, 1.7, 1.9} {
		for _, b := range []float64{0.05, 1, 30 * (a - 1), 300} {
			p := Pareto{Alpha: a, Beta: b}
			if got, want := p.Mean(), paretoMeanDirect(p); relDiff(got, want) > tol {
				t.Errorf("α=%v β=%v: Mean = %.17g, direct sum %.17g (rel %.2g)", a, b, got, want, relDiff(got, want))
			}
		}
	}
}

func TestParetoMomentsInfinite(t *testing.T) {
	for _, a := range []float64{0.5, 1} {
		if m := (Pareto{Alpha: a, Beta: 10}).Mean(); !math.IsInf(m, 1) {
			t.Errorf("α=%v: Mean = %v, want +Inf", a, m)
		}
	}
	for _, a := range []float64{1.5, 2} {
		if m := (Pareto{Alpha: a, Beta: 10}).SecondMoment(); !math.IsInf(m, 1) {
			t.Errorf("α=%v: SecondMoment = %v, want +Inf", a, m)
		}
	}
	// Just above each threshold the sums are finite (and large).
	if m := (Pareto{Alpha: 1.001, Beta: 10}).Mean(); math.IsInf(m, 0) || math.IsNaN(m) || m < 1e3 {
		t.Errorf("α=1.001: Mean = %v, want finite and large", m)
	}
	if m := (Pareto{Alpha: 2.001, Beta: 10}).SecondMoment(); math.IsInf(m, 0) || math.IsNaN(m) || m < 1e4 {
		t.Errorf("α=2.001: SecondMoment = %v, want finite and large", m)
	}
}
