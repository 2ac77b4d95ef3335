package model

import (
	"fmt"
	"math"

	"trilist/internal/degseq"
	"trilist/internal/stats"
)

// Spread is the distribution J(x) of eq. (18),
//
//	J(x) = 1/E[w(D)] · ∫_0^x w(y) dF(y),
//
// the degree distribution seen when nodes are picked in proportion to
// w(degree) (Prop. 5). For w(x) = x it is the classical spread of renewal
// theory: the degree of the node at a random edge endpoint, biased by the
// inspection paradox. It is the bridge between node quantiles and the
// label quantiles the h functions consume.
type Spread struct {
	dist degseq.Dist
	w    Weight
	ew   float64 // E[w(D)]
	// cdf caches J at integer points up to the support max (finite
	// support only).
	cdf []float64
}

// NewSpread builds the spread distribution of dist under weight w
// (nil means identity). The distribution must have finite support (use
// ParetoSpreadCDF for the untruncated closed form).
func NewSpread(dist degseq.Dist, w Weight) (*Spread, error) {
	if w == nil {
		w = WIdentity
	}
	tn := dist.Max()
	if tn == math.MaxInt64 {
		return nil, fmt.Errorf("model: NewSpread requires finite support")
	}
	s := &Spread{dist: dist, w: w, cdf: make([]float64, tn+1)}
	var acc stats.KahanSum
	for i := int64(1); i <= tn; i++ {
		acc.Add(w(float64(i)) * dist.PMF(i))
		s.cdf[i] = acc.Value()
	}
	s.ew = acc.Value()
	if s.ew <= 0 {
		return nil, fmt.Errorf("model: E[w(D)] = %v not positive", s.ew)
	}
	for i := range s.cdf {
		s.cdf[i] /= s.ew
	}
	s.cdf[tn] = 1
	return s, nil
}

// At returns J(x).
func (s *Spread) At(x int64) float64 {
	if x < 1 {
		return 0
	}
	if x >= int64(len(s.cdf)) {
		return 1
	}
	return s.cdf[x]
}

// MeanW returns the normalizer E[w(D)].
func (s *Spread) MeanW() float64 { return s.ew }

// ParetoSpreadCDF returns the closed-form spread of the *continuous*
// Pareto under w(x) = x (eq. 19):
//
//	J(x) = 1 − (β + αx)/β · (1 + x/β)^{−α},
//
// valid for α > 1 (finite mean). Exponential D gives Erlang(2); this is
// the Pareto analogue with tail index α−1 — one degree heavier than F,
// which is exactly why orientation choices matter so much for heavy
// tails.
func ParetoSpreadCDF(p degseq.Pareto) (func(float64) float64, error) {
	if p.Alpha <= 1 {
		return nil, fmt.Errorf("model: spread closed form requires α > 1, got %v", p.Alpha)
	}
	return func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - (p.Beta+p.Alpha*x)/p.Beta*math.Pow(1+x/p.Beta, -p.Alpha)
	}, nil
}

// SpreadSample draws the degree of a degree-proportionally chosen node
// (w(x) = x) from a finite sequence — the finite-n process of Prop. 5,
// used by tests to verify convergence of the empirical pick distribution
// to J.
func SpreadSample(d degseq.Sequence, rng *stats.RNG) int64 {
	var total float64
	for _, x := range d {
		total += float64(x)
	}
	r := rng.OpenFloat64() * total
	for _, x := range d {
		r -= float64(x)
		if r <= 0 {
			return x
		}
	}
	return d[len(d)-1]
}
