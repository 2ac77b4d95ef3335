package model

import (
	"math"
	"sync"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// quickCostTwoCDF is Algorithm 2 with every block evaluating cdf at both
// of its ends: the reference the carried walk must match bit for bit.
func quickCostTwoCDF(s Spec, cdf func(float64) float64, tn, eps float64) float64 {
	hxi, err := s.hxi()
	if err != nil {
		panic(err)
	}
	w := s.weight()
	var ew stats.KahanSum
	for i := 1.0; i <= tn; {
		jump := math.Ceil(eps * i)
		if jump < 1 {
			jump = 1
		}
		hi := math.Min(i+jump-1, tn)
		ew.Add(w(i) * (cdf(hi) - cdf(i-1)))
		i += jump
	}
	var cost, j stats.KahanSum
	for i := 1.0; i <= tn; {
		jump := math.Ceil(eps * i)
		if jump < 1 {
			jump = 1
		}
		hi := math.Min(i+jump-1, tn)
		p := cdf(hi) - cdf(i-1)
		if p > 0 {
			j.Add(w(i) * p / ew.Value())
			ji := math.Min(j.Value(), 1)
			cost.Add(G(i) * hxi(ji) * p)
		}
		i += jump
	}
	return cost.Value()
}

// berrySumTwoCDF is berrySum with both CDF ends evaluated per block.
func berrySumTwoCDF(p degseq.Pareto, horizon, eps float64) float64 {
	ed := p.Mean()
	var head, out stats.KahanSum
	for z := 1.0; z <= horizon; {
		jump := math.Ceil(eps * z)
		hi := z + jump - 1
		pz := p.ContinuousCDF(hi) - p.ContinuousCDF(z-1)
		head.Add(z * pz)
		tz := math.Max(ed-head.Value(), 0)
		out.Add(pz * (z*z - z) * tz * tz)
		z += jump
	}
	return out.Value() / (2 * ed * ed)
}

// discreteCostPerPointPMF is eq. (50) with dist.PMF called at every
// point of both passes.
func discreteCostPerPointPMF(s Spec, dist degseq.Dist) float64 {
	hxi, err := s.hxi()
	if err != nil {
		panic(err)
	}
	w := s.weight()
	tn := dist.Max()
	var ew stats.KahanSum
	for i := int64(1); i <= tn; i++ {
		ew.Add(w(float64(i)) * dist.PMF(i))
	}
	var cost, j stats.KahanSum
	for i := int64(1); i <= tn; i++ {
		p := dist.PMF(i)
		if p == 0 {
			continue
		}
		x := float64(i)
		j.Add(w(x) * p / ew.Value())
		cost.Add(G(x) * hxi(math.Min(j.Value(), 1)) * p)
	}
	return cost.Value()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// limitCDF is the CDF Limit walks: the discretized Pareto, floored while
// floats still resolve integers.
func limitCDF(p degseq.Pareto) func(float64) float64 {
	return func(x float64) float64 {
		if x < 1 {
			return 0
		}
		if x < 1<<52 {
			x = math.Floor(x)
		}
		return p.ContinuousCDF(x)
	}
}

var walkSpecs = []Spec{
	{Method: listing.T1, Order: order.KindDescending},
	{Method: listing.T2, Order: order.KindRoundRobin},
	{Method: listing.E1, Order: order.KindAscending},
	{Method: listing.E4, Order: order.KindCRR},
	{Method: listing.T1, Order: order.KindUniform, Weight: WCap(40)},
}

// TestCarriedWalkMatchesTwoCDFWalk: carrying each block's upper CDF value
// into the next block (and each base CDF into the next PMF) changes no
// bit of QuickCost, BerryLimit or DiscreteCost, including horizons past
// 2^53 where float spacing exceeds one and blocks end on rounded sums.
func TestCarriedWalkMatchesTwoCDFWalk(t *testing.T) {
	p := degseq.StandardPareto(1.5)
	for _, c := range []struct {
		tn, eps float64
	}{
		{2000, 1.0 / 2000},
		{12345.5, 1e-2},
		{1e9, 1e-3},
		{1 << 53, 1e-3},
		{1<<53 + 2, 1e-3},
		{1e17, 1e-3},
		{1 << 62, 1e-2},
	} {
		for _, cdf := range []func(float64) float64{ParetoTruncatedCDF(p, c.tn), limitCDF(p)} {
			for _, s := range walkSpecs {
				got, err := QuickCost(s, cdf, c.tn, c.eps)
				if err != nil {
					t.Fatal(err)
				}
				if want := quickCostTwoCDF(s, cdf, c.tn, c.eps); !sameBits(got, want) {
					t.Errorf("QuickCost %v t_n=%g ε=%g: carried %v, two-CDF %v", s, c.tn, c.eps, got, want)
				}
			}
		}
	}
	for _, c := range []struct {
		alpha, horizon, eps float64
	}{
		{1.5, 1e17, 1e-3},
		{1.4, 1 << 60, 1e-3},
		{1.7, 1<<53 + 2, 1e-3},
		{2.1, 1e8, 1e-4},
	} {
		q := degseq.StandardPareto(c.alpha)
		if got, want := berrySum(q, c.horizon, c.eps), berrySumTwoCDF(q, c.horizon, c.eps); !sameBits(got, want) {
			t.Errorf("berrySum α=%v horizon=%g ε=%g: carried %v, two-CDF %v", c.alpha, c.horizon, c.eps, got, want)
		}
	}
	// BerryLimit's own horizon and ε at a light tail.
	q := degseq.StandardPareto(3)
	got, err := BerryLimit(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := berrySumTwoCDF(q, math.Pow(10, 4+3/(3-4.0/3)), 1e-6); !sameBits(got, want) {
		t.Errorf("BerryLimit α=3: carried %v, two-CDF %v", got, want)
	}
	// QuickCost's second pass hands the walk a prefix of its own masses
	// (all of them unless the first pass hit keptBlocks); any prefix
	// must leave the visited heads and masses unchanged.
	type block struct{ i, p float64 }
	cdf := ParetoTruncatedCDF(p, 1e6)
	var full []block
	walkBlocks(cdf, 1e6, 1e6, 1e-3, nil, func(i, p float64) { full = append(full, block{i, p}) })
	for _, k := range []int{0, 1, 500, len(full) - 1, len(full)} {
		known := make([]float64, k)
		for b := range known {
			known[b] = full[b].p
		}
		var got []block
		walkBlocks(cdf, 1e6, 1e6, 1e-3, known, func(i, p float64) { got = append(got, block{i, p}) })
		if len(got) != len(full) {
			t.Fatalf("%d known masses: %d blocks, want %d", k, len(got), len(full))
		}
		for b := range got {
			if !sameBits(got[b].i, full[b].i) || !sameBits(got[b].p, full[b].p) {
				t.Fatalf("%d known masses: block %d = %+v, want %+v", k, b, got[b], full[b])
			}
		}
	}
	hist := []int64{4, 30, 22, 0, 9, 5, 0, 0, 3, 1, 0, 0, 0, 0, 0, 2}
	emp, err := degseq.FromHistogram(hist)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []degseq.Dist{mustTrunc(t, p, 5000), mustTrunc(t, degseq.StandardPareto(2.1), 777), emp} {
		for _, s := range walkSpecs {
			got, err := DiscreteCost(s, dist)
			if err != nil {
				t.Fatal(err)
			}
			if want := discreteCostPerPointPMF(s, dist); !sameBits(got, want) {
				t.Errorf("DiscreteCost %v t_n=%d: carried %v, per-point PMF %v", s, dist.Max(), got, want)
			}
		}
	}
}

// TestLimitMemoConcurrent: goroutines hit the process-wide Limit memo on
// repeated and distinct keys at once (finite, infinite and error keys,
// with and without a Weight, which the key ignores); every answer must be
// bitwise the uncached evaluation, Algorithm 2 at Limit's horizon.
func TestLimitMemoConcurrent(t *testing.T) {
	type key struct {
		s Spec
		p degseq.Pareto
	}
	// β = 7.25 and 7.5 appear in no other test, so these keys' first
	// evaluations happen here, concurrently.
	var keys []key
	for _, s := range walkSpecs[:4] {
		for _, a := range []float64{3, 4.5} {
			keys = append(keys, key{s, degseq.Pareto{Alpha: a, Beta: 7.25}})
		}
	}
	keys = append(keys,
		key{walkSpecs[0], degseq.Pareto{Alpha: 3, Beta: 7.5}},
		key{Spec{Method: listing.T1, Order: order.KindAscending}, degseq.Pareto{Alpha: 1.5, Beta: 7.25}},
		key{Spec{Method: listing.T1, Order: order.KindDegenerate}, degseq.Pareto{Alpha: 3, Beta: 7.25}},
	)
	want := make([]float64, len(keys))
	wantErr := make([]bool, len(keys))
	for i, k := range keys {
		crit, err := FinitenessAlpha(k.s)
		switch {
		case err != nil:
			wantErr[i] = true
		case k.p.Alpha <= crit:
			want[i] = math.Inf(1)
		default:
			horizon := math.Pow(10, math.Min(17, 4+3/(k.p.Alpha-crit)))
			if want[i], err = QuickCost(k.s, limitCDF(k.p), horizon, 1e-5); err != nil {
				t.Fatal(err)
			}
		}
	}
	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for j := range keys {
					i := (j + g) % len(keys)
					s := keys[i].s
					if g%2 == 1 {
						s.Weight = WCap(10)
					}
					got, err := Limit(s, keys[i].p)
					if (err != nil) != wantErr[i] {
						t.Errorf("goroutine %d: Limit %v α=%v: err %v, want error %v", g, s, keys[i].p.Alpha, err, wantErr[i])
						continue
					}
					if err == nil && !sameBits(got, want[i]) {
						t.Errorf("goroutine %d: Limit %v α=%v = %v, uncached %v", g, s, keys[i].p.Alpha, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
