package digraph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// k3Pendant is K3 plus a pendant: (0,1),(0,2),(1,2),(2,3).
func k3Pendant(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func identityRank(n int) []int32 {
	r := make([]int32, n)
	for i := range r {
		r[i] = int32(i)
	}
	return r
}

func TestOrientIdentity(t *testing.T) {
	g := k3Pendant(t)
	o, err := Orient(g, identityRank(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(o); err != nil {
		t.Fatal(err)
	}
	if o.NumNodes() != 4 || o.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", o.NumNodes(), o.NumEdges())
	}
	// Node 2 (neighbors 0,1,3): out = {0,1}, in = {3}.
	if out := o.Out(2); len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("Out(2) = %v", out)
	}
	if in := o.In(2); len(in) != 1 || in[0] != 3 {
		t.Fatalf("In(2) = %v", in)
	}
	if o.OutDeg(0) != 0 || o.InDeg(0) != 2 {
		t.Fatalf("node 0 X=%d Y=%d", o.OutDeg(0), o.InDeg(0))
	}
	if d := o.OutDeg(2) + o.InDeg(2); d != 3 {
		t.Fatalf("degree of 2 = %d", d)
	}
}

func TestOrientRelabels(t *testing.T) {
	g := k3Pendant(t)
	// Reverse the labels: rank[v] = 3 - v.
	rank := []int32{3, 2, 1, 0}
	o, err := Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(o); err != nil {
		t.Fatal(err)
	}
	// Original node 2 is now label 1, its neighbors 0,1,3 become 3,2,0:
	// out = {0}, in = {2,3}.
	if out := o.Out(1); len(out) != 1 || out[0] != 0 {
		t.Fatalf("Out(1) = %v", out)
	}
	if in := o.In(1); len(in) != 2 || in[0] != 2 || in[1] != 3 {
		t.Fatalf("In(1) = %v", in)
	}
	if o.Rank(2) != 1 {
		t.Fatalf("Rank(2) = %d", o.Rank(2))
	}
}

func TestOrientRejectsBadRank(t *testing.T) {
	g := k3Pendant(t)
	if _, err := Orient(g, []int32{0, 1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Orient(g, []int32{0, 0, 1, 2}); err == nil {
		t.Fatal("duplicate label accepted")
	}
	if _, err := Orient(g, []int32{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
}

func TestHasArc(t *testing.T) {
	g := k3Pendant(t)
	o, _ := Orient(g, identityRank(4))
	hasArc := func(y, x int32) bool { return slices.Contains(o.Out(y), x) }
	if !hasArc(2, 0) || !hasArc(1, 0) || !hasArc(3, 2) {
		t.Fatal("expected arcs missing")
	}
	if hasArc(0, 2) || hasArc(3, 0) {
		t.Fatal("phantom arcs")
	}
}

func TestArcSet(t *testing.T) {
	g := k3Pendant(t)
	o, _ := Orient(g, identityRank(4))
	s := o.ArcSet()
	if int64(s.Len()) != o.NumEdges() {
		t.Fatalf("ArcSet size %d, want %d", s.Len(), o.NumEdges())
	}
	if !s.Contains(2, 1) || s.Contains(1, 2) {
		t.Fatal("arc direction wrong in set")
	}
}

func TestDegreeSumsAndCosts(t *testing.T) {
	g := k3Pendant(t)
	o, _ := Orient(g, identityRank(4))
	// X = [0,1,2,1], Y = [2,1,1,0].
	wantX := []int64{0, 1, 2, 1}
	wantY := []int64{2, 1, 1, 0}
	for i := range wantX {
		if x, y := o.OutDeg(int32(i)), o.InDeg(int32(i)); x != wantX[i] || y != wantY[i] {
			t.Fatalf("node %d: X=%d Y=%d, want X=%d Y=%d", i, x, y, wantX[i], wantY[i])
		}
	}
	// SumT1 = Σ X(X-1)/2 = 0+0+1+0 = 1.
	if got := o.SumT1(); got != 1 {
		t.Fatalf("SumT1 = %v", got)
	}
	// SumT2 = Σ XY = 0+1+2+0 = 3.
	if got := o.SumT2(); got != 3 {
		t.Fatalf("SumT2 = %v", got)
	}
	// SumT3 = Σ Y(Y-1)/2 = 1+0+0+0 = 1.
	if got := o.SumT3(); got != 1 {
		t.Fatalf("SumT3 = %v", got)
	}
	if o.MaxOutDeg() != 2 {
		t.Fatalf("MaxOutDeg = %d", o.MaxOutDeg())
	}
}

func TestReversalSwapsXY(t *testing.T) {
	// Proposition 1: reversing the permutation swaps X_i with Y_i, so
	// SumT1 and SumT3 trade places and SumT2 is invariant.
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%40) + 3
		rng := stats.NewRNGFromSeed(seed)
		g, err := gen.ErdosRenyi(n, int64(n), rng)
		if err != nil {
			return false
		}
		p := order.Uniform(n, rng)
		rank, err := order.RankFromPerm(g, p)
		if err != nil {
			return false
		}
		rankRev, err := order.RankFromPerm(g, p.Reverse())
		if err != nil {
			return false
		}
		o1, err := Orient(g, rank)
		if err != nil {
			return false
		}
		o2, err := Orient(g, rankRev)
		if err != nil {
			return false
		}
		return o1.SumT1() == o2.SumT3() &&
			o1.SumT3() == o2.SumT1() &&
			o1.SumT2() == o2.SumT2()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOrientationInvariantsRandom(t *testing.T) {
	// ΣX = ΣY = m and Σ(X+Y 2nd moments) identity: T1+T2+T3 sums equal
	// Σ d(d-1)/2 regardless of orientation (every unordered neighbor pair
	// at each node is counted exactly once across the three formulas).
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%60) + 3
		rng := stats.NewRNGFromSeed(seed)
		m := int64(2 * n)
		if max := int64(n) * int64(n-1) / 2; m > max {
			m = max
		}
		g, err := gen.ErdosRenyi(n, m, rng)
		if err != nil {
			return false
		}
		rank, err := order.Rank(g, order.KindUniform, rng)
		if err != nil {
			return false
		}
		o, err := Orient(g, rank)
		if err != nil {
			return false
		}
		if validate(o) != nil {
			return false
		}
		var wantPairs float64
		for v := 0; v < n; v++ {
			d := float64(g.Degree(int32(v)))
			wantPairs += d * (d - 1) / 2
		}
		got := o.SumT1() + o.SumT2() + o.SumT3()
		return math.Abs(got-wantPairs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraphOrient(t *testing.T) {
	g, _ := graph.FromEdges(0, nil, false)
	o, err := Orient(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.NumNodes() != 0 || o.NumEdges() != 0 {
		t.Fatal("empty orientation wrong")
	}
	if err := validate(o); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedNodes(t *testing.T) {
	g, _ := graph.FromEdges(5, []graph.Edge{{U: 1, V: 3}}, false)
	o, err := Orient(g, identityRank(5))
	if err != nil {
		t.Fatal(err)
	}
	if o.OutDeg(0)+o.InDeg(0) != 0 || o.OutDeg(4)+o.InDeg(4) != 0 {
		t.Fatal("isolated nodes have degree")
	}
	if o.OutDeg(3) != 1 || o.InDeg(1) != 1 {
		t.Fatal("single edge oriented wrong")
	}
}

// equal reports whether two orientations are bitwise identical across
// all four arrays. (internal/testkit has OrientationsEqual for other
// packages' tests; it imports digraph, so these tests keep their own.)
func equal(o, p *Oriented) bool {
	return slices.Equal(o.offsets, p.offsets) &&
		slices.Equal(o.nbrs, p.nbrs) &&
		slices.Equal(o.split, p.split) &&
		slices.Equal(o.rank, p.rank)
}

// validate checks structural invariants: per-node adjacency sorted
// strictly ascending, split positioned exactly at the own-label boundary,
// arc symmetry (x ∈ N⁺(y) ⇔ y ∈ N⁻(x)), and ΣX = ΣY = m.
func validate(o *Oriented) error {
	n := o.NumNodes()
	var sx, sy int64
	for v := int32(0); int(v) < n; v++ {
		adj := o.nbrs[o.offsets[v]:o.offsets[v+1]]
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				return fmt.Errorf("digraph: adjacency of %d not strictly ascending", v)
			}
		}
		for _, w := range o.Out(v) {
			if w >= v {
				return fmt.Errorf("digraph: out-neighbor %d of %d not smaller", w, v)
			}
			if !contains(o.In(w), v) {
				return fmt.Errorf("digraph: arc %d->%d missing from N⁻(%d)", v, w, w)
			}
		}
		for _, w := range o.In(v) {
			if w <= v {
				return fmt.Errorf("digraph: in-neighbor %d of %d not larger", w, v)
			}
		}
		sx += o.OutDeg(v)
		sy += o.InDeg(v)
	}
	if sx != o.NumEdges() || sy != o.NumEdges() {
		return fmt.Errorf("digraph: ΣX = %d, ΣY = %d, m = %d", sx, sy, o.NumEdges())
	}
	return nil
}

func contains(s []int32, v int32) bool {
	_, found := slices.BinarySearch(s, v)
	return found
}
