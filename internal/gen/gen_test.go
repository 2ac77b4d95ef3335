package gen

import (
	"math"
	"slices"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/stats"
)

func TestResidualDegreeRealizesExactly(t *testing.T) {
	// Graphic, even-sum sequences must be realized exactly.
	cases := []degseq.Sequence{
		{2, 2, 2},          // triangle
		{3, 3, 3, 3},       // K4
		{1, 1},             // single edge
		{3, 1, 1, 1},       // star
		{2, 2, 2, 2, 2, 2}, // cycle-able
	}
	for _, d := range cases {
		g, rep, err := ResidualDegree(d, stats.NewRNGFromSeed(42))
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if rep.Deficit != 0 {
			t.Errorf("%v: deficit %d", d, rep.Deficit)
		}
		for i, want := range d {
			if got := int64(g.Degree(int32(i))); got != want {
				t.Errorf("%v: node %d degree %d, want %d", d, i, got, want)
			}
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
}

func TestResidualDegreeParetoSequences(t *testing.T) {
	// Root-truncated Pareto sequences (the paper's main workload) should
	// realize with zero or tiny deficit.
	p := degseq.StandardPareto(1.5)
	rng := stats.NewRNGFromSeed(7)
	for trial := 0; trial < 5; trial++ {
		n := 3000
		tr, _ := degseq.TruncateFor(p, degseq.RootTruncation, int64(n))
		d := degseq.Sample(tr, n, rng.Child())
		d.MakeEven()
		g, rep, err := ResidualDegree(d, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deficit > 2 {
			t.Errorf("trial %d: deficit %d too large", trial, rep.Deficit)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Realized degree must never exceed the prescription.
		for i, want := range d {
			if got := int64(g.Degree(int32(i))); got > want {
				t.Fatalf("node %d realized %d > prescribed %d", i, got, want)
			}
		}
	}
}

func TestResidualDegreeOddSum(t *testing.T) {
	d := degseq.Sequence{1, 1, 1} // odd sum: one stub must go unmatched
	g, rep, err := ResidualDegree(d, stats.NewRNGFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deficit != 1 {
		t.Fatalf("deficit = %d, want 1", rep.Deficit)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", g.NumEdges())
	}
}

func TestResidualDegreeDeterministic(t *testing.T) {
	p := degseq.StandardPareto(2.0)
	tr, _ := degseq.TruncateFor(p, degseq.RootTruncation, 1000)
	d := degseq.Sample(tr, 1000, stats.NewRNGFromSeed(9))
	d.MakeEven()
	g1, _, err := ResidualDegree(d, stats.NewRNGFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := ResidualDegree(d, stats.NewRNGFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	o1, a1 := g1.CSR()
	o2, a2 := g2.CSR()
	if !slices.Equal(o1, o2) || !slices.Equal(a1, a2) {
		t.Fatal("identical seeds produced different graphs")
	}
}

func TestResidualDegreeInvalidSequence(t *testing.T) {
	if _, _, err := ResidualDegree(degseq.Sequence{0, 1}, stats.NewRNGFromSeed(1)); err == nil {
		t.Fatal("accepted degree 0")
	}
	if _, _, err := ResidualDegree(degseq.Sequence{9, 1, 1}, stats.NewRNGFromSeed(1)); err == nil {
		t.Fatal("accepted degree > n-1")
	}
}

func TestResidualDegreeEmpty(t *testing.T) {
	g, rep, err := ResidualDegree(nil, stats.NewRNGFromSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || rep.Deficit != 0 {
		t.Fatal("empty sequence should yield empty graph")
	}
}

func TestConfigurationModelDominatedDegrees(t *testing.T) {
	p := degseq.StandardPareto(1.5)
	tr, _ := degseq.TruncateFor(p, degseq.RootTruncation, 2000)
	d := degseq.Sample(tr, 2000, stats.NewRNGFromSeed(21))
	d.MakeEven()
	g, rep, err := ConfigurationModel(d, stats.NewRNGFromSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, want := range d {
		if got := int64(g.Degree(int32(i))); got > want {
			t.Fatalf("node %d realized %d > prescribed %d", i, got, want)
		}
	}
	if got := rep.RequestedStubs - 2*rep.RealizedEdges; got != rep.Deficit {
		t.Fatalf("deficit bookkeeping: %d vs %d", got, rep.Deficit)
	}
	// Erasures should be rare but bookkeeping must balance:
	// every erased self-loop and duplicate costs 2 stubs, plus possibly
	// one dangling stub for odd totals.
	wantDeficit := 2*(rep.SelfLoopsErased+rep.DuplicatesErased) + rep.RequestedStubs%2
	if rep.Deficit != wantDeficit {
		t.Fatalf("deficit %d, want %d from erasures", rep.Deficit, wantDeficit)
	}
}

func TestChungLuExpectedDegrees(t *testing.T) {
	// Average realized degree of a high-weight node should match its
	// weight closely when no p_ij caps bind.
	n := 500
	d := make(degseq.Sequence, n)
	for i := range d {
		d[i] = 4
	}
	d[0] = 40 // 40*4/2000 = 0.08 << 1, cap never binds
	rng := stats.NewRNGFromSeed(77)
	var deg0 stats.Sample
	var mean stats.Sample
	for trial := 0; trial < 300; trial++ {
		g, _, err := ChungLu(d, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		deg0.Add(float64(g.Degree(0)))
		mean.Add(g.MeanDegree())
	}
	if math.Abs(deg0.Mean()-40) > 1.5 {
		t.Fatalf("E[deg(0)] = %v, want ≈40", deg0.Mean())
	}
	if math.Abs(mean.Mean()-4) > 0.2 {
		t.Fatalf("mean degree = %v, want ≈4", mean.Mean())
	}
}

func TestChungLuEdgeProbability(t *testing.T) {
	// Directly estimate P(0~1) and compare with d_0 d_1 / Σd.
	d := degseq.Sequence{20, 10, 5, 5, 5, 5, 5, 5, 5, 5}
	s := float64(d.Sum())
	want := 20 * 10 / s
	rng := stats.NewRNGFromSeed(123)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		g, _, err := ChungLu(d, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(g.Neighbors(0), 1) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want) > 4*math.Sqrt(want*(1-want)/trials) {
		t.Fatalf("P(0~1) = %v, want %v", got, want)
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(100, 500, stats.NewRNGFromSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 500 {
		t.Fatalf("m = %d, want 500", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ErdosRenyi(10, 100, stats.NewRNGFromSeed(1)); err == nil {
		t.Fatal("m > n(n-1)/2 accepted")
	}
	if _, err := ErdosRenyi(10, -1, stats.NewRNGFromSeed(1)); err == nil {
		t.Fatal("negative m accepted")
	}
	empty, err := ErdosRenyi(10, 0, stats.NewRNGFromSeed(1))
	if err != nil || empty.NumEdges() != 0 {
		t.Fatal("G(n,0) wrong")
	}
	full, err := ErdosRenyi(5, 10, stats.NewRNGFromSeed(1))
	if err != nil || full.NumEdges() != 10 {
		t.Fatal("complete K5 not generated")
	}
}

func TestParetoGraphEndToEnd(t *testing.T) {
	p := degseq.StandardPareto(1.7)
	g, rep, err := ParetoGraph(p, 2000, degseq.RootTruncation, stats.NewRNGFromSeed(55))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Max degree must respect root truncation.
	if got := g.MaxDegree(); got*got > 2000 {
		t.Fatalf("max degree %d violates root truncation", got)
	}
	// Mean degree should be near E[D_n] ≈ 30.5 truncated (lower).
	if g.MeanDegree() < 10 || g.MeanDegree() > 40 {
		t.Fatalf("mean degree %v implausible", g.MeanDegree())
	}
	if rep.Deficit > 2 {
		t.Fatalf("deficit %d", rep.Deficit)
	}
}

func TestResidualDegreeMatchesTargetDistribution(t *testing.T) {
	// The realized degree distribution should match the truncated Pareto
	// closely (this is the property the paper's generator exists for).
	p := degseq.StandardPareto(1.7)
	n := 20000
	tr, _ := degseq.TruncateFor(p, degseq.RootTruncation, int64(n))
	rng := stats.NewRNGFromSeed(404)
	d := degseq.Sample(tr, n, rng.Child())
	d.MakeEven()
	g, rep, err := ResidualDegree(d, rng.Child())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deficit > 2 {
		t.Fatalf("deficit %d", rep.Deficit)
	}
	obs := make([]float64, n)
	for i := 0; i < n; i++ {
		obs[i] = float64(g.Degree(int32(i)))
	}
	ks := ksDistance(obs, func(x float64) float64 {
		return tr.CDF(int64(math.Floor(x)))
	})
	if ks > 0.02 {
		t.Fatalf("KS distance %v between realized degrees and F_n", ks)
	}
}

// ksDistance is sup_x |cdf(x) - F_emp(x)| over the observation points,
// with F_emp(x) the fraction of observations <= x. internal/testkit
// has the shared copy, but it imports gen, so gen's tests keep their own.
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
