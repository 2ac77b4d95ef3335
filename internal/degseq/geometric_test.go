package degseq

import (
	"fmt"
	"math"
	"testing"

	"trilist/internal/stats"
)

// Geometric is the geometric distribution on {1, 2, ...} with success
// probability p: P(D = k) = p(1-p)^{k-1}. It is the discrete analogue of
// the exponential distribution, included because the paper's §4.1 notes
// that exponential degrees produce an Erlang(2) spread — the light-tailed
// contrast to Pareto in which every listing method has finite asymptotic
// cost (all moments exist). Only tests use it: as a second light-tailed
// base law beside Pareto.
type Geometric struct {
	P float64
}

// NewGeometric validates p in (0, 1].
func NewGeometric(p float64) (Geometric, error) {
	if !(p > 0 && p <= 1) {
		return Geometric{}, fmt.Errorf("degseq: geometric p must be in (0,1], got %v", p)
	}
	return Geometric{P: p}, nil
}

// CDF returns P(D <= x) = 1 - (1-p)^x.
func (g Geometric) CDF(x int64) float64 {
	if x < 1 {
		return 0
	}
	return 1 - math.Pow(1-g.P, float64(x))
}

// PMF returns P(D = x).
func (g Geometric) PMF(x int64) float64 {
	if x < 1 {
		return 0
	}
	return g.P * math.Pow(1-g.P, float64(x-1))
}

// Quantile returns the smallest k with CDF(k) >= u.
func (g Geometric) Quantile(u float64) int64 {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		if g.P == 1 {
			return 1
		}
		return math.MaxInt64
	}
	if g.P == 1 {
		return 1
	}
	k := int64(math.Ceil(math.Log1p(-u) / math.Log1p(-g.P)))
	if k < 1 {
		k = 1
	}
	for k > 1 && g.CDF(k-1) >= u {
		k--
	}
	for g.CDF(k) < u {
		k++
	}
	return k
}

// Max reports unbounded support (a point mass at 1 when p = 1).
func (g Geometric) Max() int64 {
	if g.P == 1 {
		return 1
	}
	return math.MaxInt64
}

// Mean returns E[D] = 1/p.
func (g Geometric) Mean() float64 { return 1 / g.P }

func TestGeometricBasics(t *testing.T) {
	g, err := NewGeometric(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.PMF(1); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("PMF(1) = %v", got)
	}
	if got := g.PMF(3); math.Abs(got-0.25*0.75*0.75) > 1e-15 {
		t.Fatalf("PMF(3) = %v", got)
	}
	if got := g.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	var sum float64
	for k := int64(1); k <= 200; k++ {
		sum += g.PMF(k)
	}
	if math.Abs(sum-g.CDF(200)) > 1e-12 {
		t.Fatalf("Σ PMF %v != CDF %v", sum, g.CDF(200))
	}
	if g.Mean() != 4 {
		t.Fatalf("Mean = %v", g.Mean())
	}
	for _, p := range []float64{0, -1, 1.5} {
		if _, err := NewGeometric(p); err == nil {
			t.Errorf("p = %v accepted", p)
		}
	}
}

func TestGeometricQuantileRoundTrip(t *testing.T) {
	g := Geometric{P: 0.1}
	rng := stats.NewRNGFromSeed(21)
	for i := 0; i < 5000; i++ {
		u := rng.OpenFloat64()
		k := g.Quantile(u)
		if g.CDF(k) < u || (k > 1 && g.CDF(k-1) >= u) {
			t.Fatalf("Quantile(%v) = %d not minimal", u, k)
		}
	}
	if g.Quantile(0) != 1 {
		t.Fatal("Quantile(0) != 1")
	}
	one := Geometric{P: 1}
	if one.Quantile(0.999) != 1 || one.Max() != 1 {
		t.Fatal("degenerate geometric wrong")
	}
}

func TestGeometricMeanSimulated(t *testing.T) {
	g := Geometric{P: 0.2}
	rng := stats.NewRNGFromSeed(33)
	var s stats.Sample
	for i := 0; i < 200000; i++ {
		s.Add(float64(g.Quantile(rng.OpenFloat64())))
	}
	if math.Abs(s.Mean()-5) > 0.05 {
		t.Fatalf("simulated mean %v, want 5", s.Mean())
	}
}

func TestGeometricTruncationWorks(t *testing.T) {
	g := Geometric{P: 0.3}
	tr, err := NewTruncated(g, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CDF(20) != 1 || tr.Quantile(0.9999999) > 20 {
		t.Fatal("truncated geometric wrong")
	}
}
