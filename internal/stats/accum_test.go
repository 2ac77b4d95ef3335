package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKahanSumSmallPlusLarge(t *testing.T) {
	// Adding 1e16 copies of tiny values to a huge value: naive float64
	// summation would lose them entirely.
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 1000; i++ {
		k.Add(1.0)
	}
	if got, want := k.Value(), 1e16+1000; got != want {
		t.Fatalf("KahanSum = %v, want %v", got, want)
	}
}

func TestKahanReset(t *testing.T) {
	var k KahanSum
	k.Add(5)
	k.Reset()
	k.Add(2)
	if k.Value() != 2 {
		t.Fatalf("after reset, sum = %v, want 2", k.Value())
	}
}

func TestSampleMoments(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.n != 8 {
		t.Fatalf("n = %d", s.n)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) {
		t.Fatal("empty sample should report a NaN mean")
	}
}

func TestSampleMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				xs[i] = math.Mod(x, 1e6)
				if math.IsNaN(xs[i]) {
					xs[i] = 0
				}
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Sample
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		return math.Abs(s.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if q := e.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %v, want 1", q)
	}
	if q := e.Quantile(1); q != 3 {
		t.Errorf("Quantile(1) = %v, want 3", q)
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	e := NewECDF(in)
	in[0] = 100
	if e.At(3) != 1 {
		t.Fatal("ECDF aliased caller slice")
	}
}

func TestKSDistanceUniform(t *testing.T) {
	r := NewRNGFromSeed(23)
	obs := make([]float64, 20000)
	for i := range obs {
		obs[i] = r.Float64()
	}
	d := NewECDF(obs).KSDistance(func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	// KS distance for 20k uniform samples should be well under 0.02.
	if d > 0.02 {
		t.Fatalf("KS distance %v too large for uniform sample", d)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("RelErr(110,100) = %v", got)
	}
	if got := RelErr(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("RelErr(90,100) = %v", got)
	}
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %v", got)
	}
	if got := RelErr(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelErr(1,0) = %v", got)
	}
	if got := RelErr(-1, 0); !math.IsInf(got, -1) {
		t.Errorf("RelErr(-1,0) = %v", got)
	}
}

// KahanSum.Reset and ECDF serve only these tests; no command calls
// them. (Other packages' tests use KSDistance from internal/testkit.)

// Reset clears the accumulator.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

// ECDF is an empirical cumulative distribution function over float64
// observations. Build one with NewECDF; evaluation is O(log n).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from the observations. The input slice
// is copied; the receiver never aliases caller memory.
func NewECDF(obs []float64) *ECDF {
	s := make([]float64, len(obs))
	copy(s, obs)
	slices.Sort(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of observations <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// first index with value > x
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile for q in [0,1] using the
// nearest-rank definition.
func (e *ECDF) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// N returns the number of observations behind the ECDF.
func (e *ECDF) N() int { return len(e.sorted) }

// KSDistance returns the supremum distance between the ECDF and the
// reference CDF, both evaluated as right-continuous step functions at the
// observation points: sup_x |F(x) - F_emp(x)| with F_emp(x) = fraction of
// observations <= x. This definition is exact for discrete reference
// distributions whose atoms coincide with observation values (our degree
// distributions) and a tight lower bound on the classical KS statistic
// for continuous references. It is used by tests to check that samplers
// realize their target distribution and that the spread distribution J
// matches Proposition 5.
func (e *ECDF) KSDistance(cdf func(float64) float64) float64 {
	n := len(e.sorted)
	if n == 0 {
		return math.NaN()
	}
	var d float64
	for i, x := range e.sorted {
		// Skip to the last element of a run of ties: F_emp(x) counts all
		// observations equal to x.
		if i+1 < n && e.sorted[i+1] == x {
			continue
		}
		f := cdf(x)
		hi := float64(i+1) / float64(n)
		d = math.Max(d, math.Abs(f-hi))
	}
	return d
}
