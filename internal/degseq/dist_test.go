package degseq

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"trilist/internal/stats"
)

func TestParetoCDFBasics(t *testing.T) {
	p := Pareto{Alpha: 1.5, Beta: 15}
	if got := p.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v, want 0", got)
	}
	if got := p.CDF(-5); got != 0 {
		t.Fatalf("CDF(-5) = %v, want 0", got)
	}
	want := 1 - math.Pow(1+1/15.0, -1.5)
	if got := p.CDF(1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("CDF(1) = %v, want %v", got, want)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for x := int64(1); x < 1000; x++ {
		c := p.CDF(x)
		if c < prev {
			t.Fatalf("CDF decreases at %d", x)
		}
		prev = c
	}
}

func TestParetoPMFSumsToCDF(t *testing.T) {
	p := Pareto{Alpha: 2.2, Beta: 36}
	var sum float64
	for x := int64(1); x <= 500; x++ {
		sum += p.PMF(x)
	}
	if got := p.CDF(500); math.Abs(sum-got) > 1e-12 {
		t.Fatalf("Σ PMF = %v, CDF(500) = %v", sum, got)
	}
}

func TestParetoQuantileRoundTrip(t *testing.T) {
	p := Pareto{Alpha: 1.5, Beta: 15}
	f := func(raw float64) bool {
		u := math.Mod(math.Abs(raw), 1)
		if u == 0 || math.IsNaN(u) {
			u = 0.5
		}
		k := p.Quantile(u)
		// Smallest k with CDF(k) >= u.
		return p.CDF(k) >= u && (k == 1 || p.CDF(k-1) < u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoQuantileEdges(t *testing.T) {
	p := Pareto{Alpha: 1.5, Beta: 15}
	if got := p.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %d, want 1", got)
	}
	if got := p.Quantile(1); got != math.MaxInt64 {
		t.Fatalf("Quantile(1) = %d, want MaxInt64", got)
	}
	if got := p.Quantile(1e-12); got != 1 {
		t.Fatalf("Quantile(tiny) = %d, want 1", got)
	}
}

func TestNewParetoValidation(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{
		{0, 1}, {-1, 1}, {1, 0}, {1, -3}, {math.Inf(1), 1}, {1, math.Inf(1)},
	} {
		if _, err := NewPareto(c.a, c.b); err == nil {
			t.Errorf("NewPareto(%v,%v) accepted invalid params", c.a, c.b)
		}
	}
	if _, err := NewPareto(1.5, 15); err != nil {
		t.Errorf("NewPareto(1.5,15) rejected: %v", err)
	}
}

func TestStandardParetoMeanNear30(t *testing.T) {
	// The paper keeps β = 30(α-1), "which yields E[D] ≈ 30.5 after
	// discretization" (§7.3).
	for _, alpha := range []float64{1.5, 1.7, 2.1, 3.0} {
		p := StandardPareto(alpha)
		m := p.Mean()
		if math.Abs(m-30.5) > 0.2 {
			t.Errorf("alpha=%v: E[D] = %v, want ≈30.5", alpha, m)
		}
	}
}

func TestStandardParetoPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StandardPareto(1.0) did not panic")
		}
	}()
	StandardPareto(1.0)
}

func TestParetoMeanInfinite(t *testing.T) {
	p := Pareto{Alpha: 1.0, Beta: 10}
	if !math.IsInf(p.Mean(), 1) {
		t.Fatal("Mean should be +Inf for alpha <= 1")
	}
	p2 := Pareto{Alpha: 0.5, Beta: 10}
	if !math.IsInf(p2.Mean(), 1) {
		t.Fatal("Mean should be +Inf for alpha = 0.5")
	}
}

func TestParetoMeanMatchesSimulation(t *testing.T) {
	p := StandardPareto(1.7)
	r := stats.NewRNGFromSeed(101)
	var s stats.Sample
	for i := 0; i < 300000; i++ {
		s.Add(float64(p.Quantile(r.OpenFloat64())))
	}
	// Heavy tail (α=1.7): generous tolerance but the mean must be close.
	if math.Abs(s.Mean()-p.Mean()) > 2 {
		t.Fatalf("simulated mean %v vs analytic %v", s.Mean(), p.Mean())
	}
}

func TestSecondMoment(t *testing.T) {
	p := Pareto{Alpha: 3.0, Beta: 60}
	r := stats.NewRNGFromSeed(55)
	var s stats.Sample
	for i := 0; i < 400000; i++ {
		d := float64(p.Quantile(r.OpenFloat64()))
		s.Add(d * d)
	}
	m2 := p.SecondMoment()
	if math.IsInf(m2, 1) {
		t.Fatal("second moment should be finite for alpha=3")
	}
	if math.Abs(s.Mean()-m2)/m2 > 0.05 {
		t.Fatalf("simulated E[D²] = %v vs analytic %v", s.Mean(), m2)
	}
	if !math.IsInf(Pareto{Alpha: 2.0, Beta: 30}.SecondMoment(), 1) {
		t.Fatal("second moment should be +Inf for alpha <= 2")
	}
}

func TestTruncatedBasics(t *testing.T) {
	base := Pareto{Alpha: 1.5, Beta: 15}
	tr, err := NewTruncated(base, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CDF(100); got != 1 {
		t.Fatalf("CDF(t_n) = %v, want 1", got)
	}
	if got := tr.CDF(1000); got != 1 {
		t.Fatalf("CDF beyond t_n = %v, want 1", got)
	}
	if got := tr.PMF(101); got != 0 {
		t.Fatalf("PMF beyond t_n = %v, want 0", got)
	}
	var sum float64
	for x := int64(1); x <= 100; x++ {
		sum += tr.PMF(x)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("truncated PMF sums to %v", sum)
	}
	if tr.Max() != 100 {
		t.Fatalf("Max = %d", tr.Max())
	}
}

func TestTruncatedErrors(t *testing.T) {
	base := Pareto{Alpha: 1.5, Beta: 15}
	if _, err := NewTruncated(base, 0); err == nil {
		t.Fatal("accepted t_n = 0")
	}
}

func TestTruncatedQuantileRoundTrip(t *testing.T) {
	base := Pareto{Alpha: 1.2, Beta: 6}
	tr, _ := NewTruncated(base, 500)
	r := stats.NewRNGFromSeed(9)
	for i := 0; i < 2000; i++ {
		u := r.OpenFloat64()
		k := tr.Quantile(u)
		if k < 1 || k > 500 {
			t.Fatalf("Quantile(%v) = %d out of range", u, k)
		}
		if tr.CDF(k) < u || (k > 1 && tr.CDF(k-1) >= u) {
			t.Fatalf("Quantile(%v) = %d is not the minimal solution", u, k)
		}
	}
}

func TestTruncatedMeanBlockedVsExact(t *testing.T) {
	base := Pareto{Alpha: 1.5, Beta: 15}
	for _, tn := range []int64{1, 2, 10, 1000, 100000} {
		tr, _ := NewTruncated(base, tn)
		blocked, exact := tr.Mean(), tr.MeanExact()
		if math.Abs(blocked-exact)/exact > 1e-5 {
			t.Errorf("t_n=%d: blocked mean %v vs exact %v", tn, blocked, exact)
		}
	}
}

func TestTruncationRules(t *testing.T) {
	if got := RootTruncation.Tn(1000000); got != 1000 {
		t.Fatalf("root Tn(1e6) = %d, want 1000", got)
	}
	if got := RootTruncation.Tn(10); got != 3 {
		t.Fatalf("root Tn(10) = %d, want 3", got)
	}
	if got := RootTruncation.Tn(1); got != 1 {
		t.Fatalf("root Tn(1) = %d, want 1", got)
	}
	if got := LinearTruncation.Tn(1000); got != 999 {
		t.Fatalf("linear Tn(1000) = %d, want 999", got)
	}
	if got := LinearTruncation.Tn(1); got != 1 {
		t.Fatalf("linear Tn(1) = %d, want 1", got)
	}
	if RootTruncation.String() != "root" || LinearTruncation.String() != "linear" {
		t.Fatal("truncation names wrong")
	}
}

func TestRootTruncationExactSquares(t *testing.T) {
	// Property: Tn(n)² <= n < (Tn(n)+1)² for all n >= 1.
	f := func(raw int64) bool {
		n := raw % 1000000000
		if n < 1 {
			n = -n + 1
		}
		tn := RootTruncation.Tn(n)
		return tn >= 1 && tn*tn <= n && (tn+1)*(tn+1) > n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpirical(t *testing.T) {
	e, err := NewEmpirical([]float64{1, 0, 3}) // P(1)=0.25, P(2)=0, P(3)=0.75
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PMF(1); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("PMF(1) = %v", got)
	}
	if got := e.PMF(2); got != 0 {
		t.Fatalf("PMF(2) = %v", got)
	}
	if got := e.CDF(2); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("CDF(2) = %v", got)
	}
	if got := e.Quantile(0.3); got != 3 {
		t.Fatalf("Quantile(0.3) = %d, want 3", got)
	}
	if got := e.Quantile(0.25); got != 1 {
		t.Fatalf("Quantile(0.25) = %d, want 1", got)
	}
	if got := e.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestEmpiricalErrors(t *testing.T) {
	if _, err := NewEmpirical(nil); err == nil {
		t.Fatal("accepted empty weights")
	}
	if _, err := NewEmpirical([]float64{0, 0}); err == nil {
		t.Fatal("accepted zero-sum weights")
	}
	if _, err := NewEmpirical([]float64{1, -1}); err == nil {
		t.Fatal("accepted negative weight")
	}
}

func TestSamplingMatchesCDF(t *testing.T) {
	base := Pareto{Alpha: 1.7, Beta: 21}
	tr, _ := NewTruncated(base, 1000)
	r := stats.NewRNGFromSeed(77)
	const draws = 100000
	obs := make([]float64, draws)
	for i := range obs {
		obs[i] = float64(tr.Quantile(r.OpenFloat64()))
	}
	d := ksDistance(obs, func(x float64) float64 {
		return tr.CDF(int64(math.Floor(x)))
	})
	if d > 0.01 {
		t.Fatalf("KS distance %v between sample and truncated CDF", d)
	}
}

// TestEachPMFMatchesPMF: the carried-CDF walk over a truncated support
// and the plain walk over any other finite support visit x = 1..Max() in
// order with values bitwise equal to PMF(x).
func TestEachPMFMatchesPMF(t *testing.T) {
	emp, err := FromHistogram([]int64{3, 10, 0, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dist{
		mustTruncated(t, Pareto{Alpha: 1.5, Beta: 15}, 3000),
		mustTruncated(t, Geometric{P: 0.2}, 50),
		mustTruncated(t, emp, 3),
		emp,
	} {
		next := int64(1)
		EachPMF(d, func(x int64, p float64) {
			if x != next {
				t.Fatalf("visited %d, want %d", x, next)
			}
			if want := d.PMF(x); math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("%T: EachPMF(%d) = %v, PMF = %v", d, x, p, want)
			}
			next++
		})
		if next != d.Max()+1 {
			t.Fatalf("%T: walk stopped at %d, Max() = %d", d, next-1, d.Max())
		}
	}
}

func mustTruncated(t *testing.T, base Dist, tn int64) *Truncated {
	t.Helper()
	tr, err := NewTruncated(base, tn)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// ksDistance is sup_x |cdf(x) - F_emp(x)| over the observation points,
// with F_emp(x) the fraction of observations <= x. internal/testkit has
// the shared copy, but it imports degseq, so degseq's tests keep their
// own.
func ksDistance(obs []float64, cdf func(float64) float64) float64 {
	sorted := slices.Clone(obs)
	slices.Sort(sorted)
	var d float64
	for i, x := range sorted {
		if i+1 < len(sorted) && sorted[i+1] == x {
			continue
		}
		d = math.Max(d, math.Abs(cdf(x)-float64(i+1)/float64(len(sorted))))
	}
	return d
}

// SecondMoment returns E[D²], +Inf for α <= 2. Only its
// own tests use it.
//
// E[D²] = Σ_{k>=1} (2k-1) P(D >= k) = Σ_{k>=0} (2k+1)(1+k/β)^{-α}. The
// first emHead terms are added directly; since 2k+1 = 2β(1+k/β) − (2β−1),
// the rest is 2β·S(α−1) − (2β−1)·S(α) with S paretoTail's closed form.
func (p Pareto) SecondMoment() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a, b := p.Alpha, p.Beta
	var sum stats.KahanSum
	for k := 0; k < emHead; k++ {
		sum.Add((2*float64(k) + 1) * math.Pow(1+float64(k)/b, -a))
	}
	sum.Add(2 * b * paretoTail(a-1, b))
	sum.Add(-(2*b - 1) * paretoTail(a, b))
	return sum.Value()
}

// MeanExact returns E[D_n] by direct summation, O(t_n). The reference
// TestTruncatedMeanBlockedVsExact checks the blocked Mean against.
func (t *Truncated) MeanExact() float64 {
	var sum stats.KahanSum
	for k := int64(0); k < t.Tn; k++ {
		sum.Add(1 - t.CDF(k))
	}
	return sum.Value()
}
