package listing

import (
	"math"
	"testing"

	"trilist/internal/digraph"
	"trilist/internal/order"
)

// noRelabelCost and noOrientationExtraLookups model the cost penalties
// of *incomplete preprocessing* (§2.4): prior work that orients without
// relabeling, or relabels without orienting. The penalties are exact
// functions of the orientation's degree sums, so they are computed the
// same way as ModelCost; the tests below check the paper's claims that
// skipping relabeling doubles every T1/T3-shaped term (e.g. explaining the reported 300B
// tuples for T1 on Twitter versus 150B with full preprocessing) and
// that skipping orientation costs ζ = Σ log₂ d_i extra binary searches
// for T2/E1/E2 and a per-edge search for E3–E6.

// noRelabelCost returns the model cost of running method m on a graph
// that was oriented but NOT relabeled: directed neighbor lists exist,
// but their members are not ordered against each other, so
//
//   - every term that is T1- or T3-shaped doubles (all ordered pairs
//     x, y ∈ N⁺(z) must be checked instead of only x < y, and local SEI
//     scans cannot stop early);
//   - T2-shaped terms are unaffected (the in/out split alone supports
//     them).
//
// Defined for VI and SEI methods; LEI follows its VI equivalents.
func noRelabelCost(o *digraph.Oriented, m Method) float64 {
	double := func(t costTerm) float64 {
		v := evalTerm(o, t)
		if t == termT2 {
			return v
		}
		return 2 * v
	}
	switch m.Family() {
	case VertexIterator:
		return double(viCost[m-T1])
	case ScanningEdgeIterator:
		c := seiCost[m-E1]
		return double(c[0]) + double(c[1])
	default:
		return double(leiCost[m-L1])
	}
}

// noOrientationExtraLookups returns the extra random memory accesses a
// method pays when the graph is relabeled but NOT oriented (§2.4):
// neighbor lists are sorted by label, but in- and out-neighbors are
// interleaved, so locating the boundary costs a binary search.
//
//   - T1/T3 need nothing extra (their pair generation scans one side of
//     the boundary found implicitly);
//   - T2, E1 and E2 pay ζ = Σ_i log₂ d_i (one search per node);
//   - E3/E5 and E4/E6 pay one search per edge: Σ_i X_i·log₂(d_i) when
//     the searched list belongs to the out side, or Σ_i Y_i·log₂(d_i)
//     for the in side. (The paper notes backwards-sorted lists reduce
//     E3/E5 back to ζ, but not E4/E6.)
func noOrientationExtraLookups(o *digraph.Oriented, m Method) float64 {
	n := o.NumNodes()
	log2d := func(v int32) float64 {
		d := float64(o.OutDeg(v) + o.InDeg(v))
		if d < 2 {
			return 0
		}
		return math.Log2(d)
	}
	var zeta float64
	perNode := func() float64 {
		if zeta == 0 {
			for v := int32(0); int(v) < n; v++ {
				zeta += log2d(v)
			}
		}
		return zeta
	}
	switch m {
	case T1, T4, T3, T6:
		return 0
	case T2, T5, E1, E2, L1, L2, L3:
		return perNode()
	case E3, E5, L5:
		// One search per directed edge into the remote in-list.
		var s float64
		for v := int32(0); int(v) < n; v++ {
			s += float64(o.OutDeg(v)) * log2d(v)
		}
		return s
	case E4, E6, L4, L6:
		var s float64
		for v := int32(0); int(v) < n; v++ {
			s += float64(o.InDeg(v)) * log2d(v)
		}
		return s
	default:
		return 0
	}
}

func TestNoRelabelDoublesT1T3Terms(t *testing.T) {
	g := randomTestGraph(t, 50, 80, 500)
	o := orientBy(t, g, order.KindDescending, 1)
	// §2.4 claims, at the cost level:
	//  T1 doubles, T2 unchanged, E1 = 2·T1 + T2, E4 = 2·T1 + 2·T3.
	if got, want := noRelabelCost(o, T1), 2*ModelCost(o, T1); got != want {
		t.Errorf("no-relabel T1 = %v, want %v", got, want)
	}
	if got, want := noRelabelCost(o, T2), ModelCost(o, T2); got != want {
		t.Errorf("no-relabel T2 = %v, want %v (unchanged)", got, want)
	}
	if got, want := noRelabelCost(o, E1), 2*ModelCost(o, T1)+ModelCost(o, T2); got != want {
		t.Errorf("no-relabel E1 = %v, want %v", got, want)
	}
	if got, want := noRelabelCost(o, E4), 2*(ModelCost(o, T1)+ModelCost(o, T3)); got != want {
		t.Errorf("no-relabel E4 = %v, want %v", got, want)
	}
	// The paper's Twitter observation: lack of relabeling doubles T1 and
	// increases E1 by the T1 fraction — here c(E1)+T1 exactly.
	if got, want := noRelabelCost(o, E1)-ModelCost(o, E1), ModelCost(o, T1); got != want {
		t.Errorf("E1 penalty = %v, want T1 cost %v", got, want)
	}
	// LEI follows Table 2 with the same doubling rule.
	if got, want := noRelabelCost(o, L2), 2*ModelCost(o, T1); got != want {
		t.Errorf("no-relabel L2 = %v, want %v", got, want)
	}
	if got, want := noRelabelCost(o, L1), ModelCost(o, T2); got != want {
		t.Errorf("no-relabel L1 = %v, want %v", got, want)
	}
}

func TestNoOrientationLookups(t *testing.T) {
	g := randomTestGraph(t, 51, 80, 500)
	o := orientBy(t, g, order.KindDescending, 1)
	// ζ = Σ log₂ d_i over nodes with degree >= 2.
	var zeta float64
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if d := float64(g.Degree(v)); d >= 2 {
			zeta += math.Log2(d)
		}
	}
	if zeta <= 0 {
		t.Fatal("test graph too sparse")
	}
	// T1/T3 unaffected.
	if noOrientationExtraLookups(o, T1) != 0 || noOrientationExtraLookups(o, T3) != 0 {
		t.Error("T1/T3 should pay no extra lookups")
	}
	// T2, E1, E2 pay ζ.
	for _, m := range []Method{T2, E1, E2} {
		if got := noOrientationExtraLookups(o, m); math.Abs(got-zeta) > 1e-9 {
			t.Errorf("%v extra lookups = %v, want ζ = %v", m, got, zeta)
		}
	}
	// E3-E6 pay per-edge searches, strictly more than ζ on graphs with
	// mean degree > 2.
	for _, m := range []Method{E3, E4, E5, E6} {
		if got := noOrientationExtraLookups(o, m); got <= zeta {
			t.Errorf("%v extra lookups = %v, expected > ζ = %v", m, got, zeta)
		}
	}
	// E3/E5 weight by out-degree, E4/E6 by in-degree: under reversal the
	// two groups swap values.
	p := order.Uniform(g.NumNodes(), rngFor(52))
	rank, _ := order.RankFromPerm(g, p)
	rankRev, _ := order.RankFromPerm(g, p.Reverse())
	of, _ := orientRanked(g, rank)
	or, _ := orientRanked(g, rankRev)
	if a, b := noOrientationExtraLookups(of, E3), noOrientationExtraLookups(or, E4); math.Abs(a-b) > 1e-9 {
		t.Errorf("E3 under θ (%v) should equal E4 under θ' (%v)", a, b)
	}
}
