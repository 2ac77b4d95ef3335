package listing

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// triKey canonically encodes a triangle for set comparison.
type triKey [3]int32

func collect(o *digraph.Oriented, m Method) (map[triKey]bool, Stats) {
	set := make(map[triKey]bool)
	s := Run(o, m, func(x, y, z int32) {
		k := triKey{x, y, z}
		if set[k] {
			panic(fmt.Sprintf("%v reported triangle %v twice", m, k))
		}
		if !(x < y && y < z) {
			panic(fmt.Sprintf("%v emitted unsorted triangle %v", m, k))
		}
		set[k] = true
	})
	return set, s
}

// randomTestGraph builds a small random graph with plenty of triangles.
func randomTestGraph(t testing.TB, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	g, err := gen.ErdosRenyi(n, int64(m), stats.NewRNGFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func orientBy(t testing.TB, g *graph.Graph, k order.Kind, seed uint64) *digraph.Oriented {
	t.Helper()
	rank, err := order.Rank(g, k, stats.NewRNGFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	o, err := digraph.Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestTinyTriangle(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}, false)
	o := orientBy(t, g, order.KindAscending, 1)
	for _, m := range Methods {
		set, s := collect(o, m)
		if len(set) != 1 || s.Triangles != 1 {
			t.Errorf("%v found %d triangles in K3, want 1", m, s.Triangles)
		}
	}
}

func TestAllMethodsAgreeOnTriangleSet(t *testing.T) {
	// The fundamental correctness property: all 18 methods must emit the
	// identical triangle set, under every orientation.
	for _, kind := range order.Kinds {
		for trial := 0; trial < 3; trial++ {
			g := randomTestGraph(t, uint64(trial)*7+1, 60, 300)
			o := orientBy(t, g, kind, uint64(trial))
			ref, _ := collect(o, T1)
			for _, m := range Methods[1:] {
				got, _ := collect(o, m)
				if len(got) != len(ref) {
					t.Fatalf("order %v trial %d: %v found %d triangles, T1 found %d",
						kind, trial, m, len(got), len(ref))
				}
				for k := range ref {
					if !got[k] {
						t.Fatalf("order %v trial %d: %v missed triangle %v", kind, trial, m, k)
					}
				}
			}
		}
	}
}

func TestTriangleCountInvariantUnderOrientation(t *testing.T) {
	// The number of triangles is a graph invariant: every orientation
	// must produce the same count.
	g := randomTestGraph(t, 99, 80, 600)
	counts := make(map[order.Kind]int64)
	for _, kind := range order.Kinds {
		o := orientBy(t, g, kind, 5)
		counts[kind] = Count(o, E1)
	}
	first := counts[order.Kinds[0]]
	for k, c := range counts {
		if c != first {
			t.Fatalf("order %v count %d != %d", k, c, first)
		}
	}
	if first == 0 {
		t.Fatal("test graph has no triangles; raise density")
	}
}

func TestMeasuredCostMatchesModelFormulas(t *testing.T) {
	// The instrumented runs must measure exactly the closed-form degree
	// sums: eqs. (7)-(9) for VI, Table 1 for SEI, Table 2 for LEI.
	g := randomTestGraph(t, 42, 70, 400)
	for _, kind := range order.Kinds {
		o := orientBy(t, g, kind, 7)
		for _, m := range Methods {
			_, s := collect(o, m)
			want := ModelCost(o, m)
			if got := float64(s.ModelOps()); got != want {
				t.Errorf("order %v method %v: measured %v, formula %v", kind, m, got, want)
			}
			if m.Family() == ScanningEdgeIterator {
				wl, wr := ModelCostSplit(o, m)
				if float64(s.LocalScan) != wl || float64(s.RemoteScan) != wr {
					t.Errorf("order %v method %v: split (%d,%d), formula (%v,%v)",
						kind, m, s.LocalScan, s.RemoteScan, wl, wr)
				}
				if s.Comparisons > s.LocalScan+s.RemoteScan {
					t.Errorf("%v: actual comparisons %d exceed model %d",
						m, s.Comparisons, s.LocalScan+s.RemoteScan)
				}
			}
		}
	}
}

func TestEquivalenceClassCosts(t *testing.T) {
	// §2.2/§2.3 equivalences on a fixed orientation:
	// T4/T5/T6 cost the same as T1/T2/T3; E2 costs the same as E1
	// (T1+T2); E3 and E5 share costs with the reversed counterparts.
	g := randomTestGraph(t, 11, 50, 250)
	o := orientBy(t, g, order.KindDescending, 1)
	if ModelCost(o, T1) != ModelCost(o, T4) ||
		ModelCost(o, T2) != ModelCost(o, T5) ||
		ModelCost(o, T3) != ModelCost(o, T6) {
		t.Fatal("T4-T6 do not repeat T1-T3 costs")
	}
	if ModelCost(o, E1) != ModelCost(o, E2) {
		t.Fatal("E1 and E2 should both cost T1+T2")
	}
	if ModelCost(o, E1) != ModelCost(o, T1)+ModelCost(o, T2) {
		t.Fatal("Proposition 2: c(E1) = c(T1) + c(T2) violated")
	}
	if ModelCost(o, E4) != ModelCost(o, T1)+ModelCost(o, T3) {
		t.Fatal("Table 1: c(E4) = T1 + T3 violated")
	}
	if ModelCost(o, L1) != ModelCost(o, T2) || ModelCost(o, L2) != ModelCost(o, T1) ||
		ModelCost(o, L4) != ModelCost(o, T3) {
		t.Fatal("Table 2 LEI costs violated")
	}
}

func TestReversalEquivalence(t *testing.T) {
	// Proposition 1 at the listing level: T1 under θ equals T3 under θ'
	// in cost, and E1 under θ equals E3 under θ'.
	g := randomTestGraph(t, 13, 50, 250)
	p := order.Uniform(g.NumNodes(), stats.NewRNGFromSeed(2))
	rank, _ := order.RankFromPerm(g, p)
	rankRev, _ := order.RankFromPerm(g, p.Reverse())
	o, _ := digraph.Orient(g, rank)
	oRev, _ := digraph.Orient(g, rankRev)
	if ModelCost(o, T1) != ModelCost(oRev, T3) {
		t.Fatal("c(T1, θ) != c(T3, θ')")
	}
	if ModelCost(o, T2) != ModelCost(oRev, T5) {
		t.Fatal("c(T2, θ) != c(T5, θ')")
	}
	if ModelCost(o, E1) != ModelCost(oRev, E3) {
		t.Fatal("c(E1, θ) != c(E3, θ')")
	}
	if ModelCost(o, E4) != ModelCost(oRev, E6) {
		t.Fatal("c(E4, θ) != c(E6, θ')")
	}
}

func TestAgainstBruteForce(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawM uint16) bool {
		n := int(rawN%25) + 4
		m := int(rawM % 120)
		g := randomTestGraph(t, seed, n, m)
		want := BruteForce(g, nil).Triangles
		o := orientBy(t, g, order.KindDescending, seed)
		for _, method := range Core {
			if Count(o, method) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesAgree(t *testing.T) {
	g := randomTestGraph(t, 77, 40, 200)
	want := BruteForce(g, nil).Triangles
	type namedBaseline struct {
		name string
		run  func(*graph.Graph, Visitor) BaselineStats
	}
	for _, b := range []namedBaseline{
		{"ClassicNodeIterator", ClassicNodeIterator},
		{"ClassicEdgeIterator", ClassicEdgeIterator},
		{"ChibaNishizeki", ChibaNishizeki},
		{"Forward", Forward},
		{"CompactForward", CompactForward},
	} {
		seen := make(map[triKey]bool)
		s := b.run(g, func(x, y, z int32) {
			k := triKey{x, y, z}
			if seen[k] {
				t.Fatalf("%s reported %v twice", b.name, k)
			}
			if !(x < y && y < z) {
				t.Fatalf("%s emitted unsorted %v", b.name, k)
			}
			if !g.HasEdge(x, y) || !g.HasEdge(x, z) || !g.HasEdge(y, z) {
				t.Fatalf("%s emitted non-triangle %v", b.name, k)
			}
			seen[k] = true
		})
		if s.Triangles != want {
			t.Errorf("%s found %d triangles, want %d", b.name, s.Triangles, want)
		}
	}
}

func TestClassicNodeIteratorOpsAreSumD2(t *testing.T) {
	// Θ(Σ d²) claim: candidates = Σ C(d_i, 2) exactly.
	g := randomTestGraph(t, 5, 50, 300)
	var want int64
	for _, d := range g.Degrees() {
		want += d * (d - 1) / 2
	}
	if got := ClassicNodeIterator(g, nil).Ops; got != want {
		t.Fatalf("ops = %d, want Σ C(d,2) = %d", got, want)
	}
}

func TestCompactForwardOpsBoundedByE2Model(t *testing.T) {
	g := randomTestGraph(t, 21, 60, 350)
	o := orientBy(t, g, order.KindDescending, 0)
	bound := ModelCost(o, E2) + float64(2*g.NumEdges()) // merges may touch both list ends
	if got := float64(CompactForward(g, nil).Ops); got > bound {
		t.Fatalf("CompactForward ops %v exceed E2 model bound %v", got, bound)
	}
}

func TestVisitorNilSafe(t *testing.T) {
	g := randomTestGraph(t, 31, 30, 100)
	o := orientBy(t, g, order.KindUniform, 3)
	for _, m := range Methods {
		Run(o, m, nil) // must not panic
	}
	BruteForce(g, nil)
	ClassicNodeIterator(g, nil)
	ClassicEdgeIterator(g, nil)
	ChibaNishizeki(g, nil)
	Forward(g, nil)
	CompactForward(g, nil)
}

func TestEmptyAndEdgeOnlyGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(0, nil, false)
	oe, _ := digraph.Orient(empty, nil)
	single, _ := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, false)
	os := orientBy(t, single, order.KindAscending, 1)
	star, _ := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}}, false)
	ost := orientBy(t, star, order.KindDescending, 1)
	for _, m := range Methods {
		if Count(oe, m) != 0 {
			t.Errorf("%v found triangles in empty graph", m)
		}
		if Count(os, m) != 0 {
			t.Errorf("%v found triangles in single edge", m)
		}
		if Count(ost, m) != 0 {
			t.Errorf("%v found triangles in a star", m)
		}
	}
}

// zooGraph builds an n-vertex graph from an edge list, failing the test
// on a malformed list.
func zooGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func completeEdges(n int) []graph.Edge {
	var edges []graph.Edge
	for i := int32(0); int(i) < n; i++ {
		for j := i + 1; int(j) < n; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return edges
}

// wheelEdges is W_n: hub 0 joined to every vertex of the rim cycle
// 1..n.
func wheelEdges(n int) []graph.Edge {
	var edges []graph.Edge
	for i := int32(1); int(i) <= n; i++ {
		next := i%int32(n) + 1
		edges = append(edges, graph.Edge{U: 0, V: i}, graph.Edge{U: i, V: next})
	}
	return edges
}

// friendshipEdges is F_k: k triangles sharing only vertex 0.
func friendshipEdges(k int) []graph.Edge {
	var edges []graph.Edge
	for i := int32(0); int(i) < k; i++ {
		a, b := 2*i+1, 2*i+2
		edges = append(edges, graph.Edge{U: 0, V: a}, graph.Edge{U: 0, V: b}, graph.Edge{U: a, V: b})
	}
	return edges
}

// bookEdges is B_k: k triangles sharing the spine edge 0–1.
func bookEdges(k int) []graph.Edge {
	edges := []graph.Edge{{U: 0, V: 1}}
	for i := int32(2); int(i) < k+2; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i}, graph.Edge{U: 1, V: i})
	}
	return edges
}

// bipartiteEdges is K_{a,b}: sides 0..a-1 and a..a+b-1.
func bipartiteEdges(a, b int) []graph.Edge {
	var edges []graph.Edge
	for i := int32(0); int(i) < a; i++ {
		for j := int32(a); int(j) < a+b; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	return edges
}

// hypercubeEdges is Q_d: vertices are d-bit words, edges flip one bit.
func hypercubeEdges(d int) []graph.Edge {
	var edges []graph.Edge
	for v := int32(0); v < 1<<d; v++ {
		for b := 0; b < d; b++ {
			if w := v ^ 1<<b; v < w {
				edges = append(edges, graph.Edge{U: v, V: w})
			}
		}
	}
	return edges
}

// gridEdges is the r×c grid graph (4-neighbour lattice).
func gridEdges(r, c int) []graph.Edge {
	var edges []graph.Edge
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := int32(i*c + j)
			if j+1 < c {
				edges = append(edges, graph.Edge{U: v, V: v + 1})
			}
			if i+1 < r {
				edges = append(edges, graph.Edge{U: v, V: v + int32(c)})
			}
		}
	}
	return edges
}

// TestKnownTriangleCounts is the known-answer zoo: graph families with
// closed-form triangle counts plus the two published ingest fixtures.
// The expected counts come from the construction, not from BruteForce,
// so a bug shared by every listing path still shows. Every method ×
// order runs on the adaptive path and on the merge reference, whose
// Stats must agree.
func TestKnownTriangleCounts(t *testing.T) {
	fixture := func(name string) *graph.Graph {
		data, err := os.ReadFile(filepath.Join("..", "ingest", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := ingest.Parse(data, ingest.FormatAuto, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	zoo := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K4", zooGraph(t, 4, completeEdges(4)), 4},
		{"K12", zooGraph(t, 12, completeEdges(12)), 12 * 11 * 10 / 6},
		{"W4", zooGraph(t, 5, wheelEdges(4)), 4},
		{"W9", zooGraph(t, 10, wheelEdges(9)), 9},
		{"F1", zooGraph(t, 3, friendshipEdges(1)), 1},
		{"F7", zooGraph(t, 15, friendshipEdges(7)), 7},
		{"B6", zooGraph(t, 8, bookEdges(6)), 6},
		{"K3,4", zooGraph(t, 7, bipartiteEdges(3, 4)), 0},
		{"Q4", zooGraph(t, 16, hypercubeEdges(4)), 0},
		{"grid5x6", zooGraph(t, 30, gridEdges(5, 6)), 0},
		{"karate", fixture("karate.mtx"), 45},
		{"florentine", fixture("florentine.txt"), 3},
	}
	for _, tc := range zoo {
		for _, kind := range order.Kinds {
			o := orientBy(t, tc.g, kind, 9)
			for _, m := range Methods {
				s, ref := Run(o, m, nil), Run(o, m, nil, mergeReference())
				if s.Triangles != tc.want || s != ref {
					t.Errorf("%s order %v method %v: %d triangles (Stats %+v), want %d (merge reference %+v)",
						tc.name, kind, m, s.Triangles, s, tc.want, ref)
				}
			}
		}
	}
}

func TestStatsMeterConsistency(t *testing.T) {
	g := randomTestGraph(t, 3, 60, 350)
	o := orientBy(t, g, order.KindDescending, 1)
	// Vertex iterator: HashBuild equals m (global arc set).
	_, sT1 := collect(o, T1)
	if sT1.HashBuild != o.NumEdges() {
		t.Errorf("T1 HashBuild = %d, want m = %d", sT1.HashBuild, o.NumEdges())
	}
	// LEI: per-node local insertions also total m (ΣX = ΣY = m, §2.3).
	for _, m := range []Method{L1, L2, L3, L4, L5, L6} {
		_, s := collect(o, m)
		if s.HashBuild != o.NumEdges() {
			t.Errorf("%v HashBuild = %d, want m = %d", m, s.HashBuild, o.NumEdges())
		}
	}
}

func TestMethodStringsAndFamilies(t *testing.T) {
	if T1.String() != "T1" || E4.String() != "E4" || L6.String() != "L6" {
		t.Fatal("method names wrong")
	}
	if Method(99).String() != "Method(99)" {
		t.Fatal("unknown method name")
	}
	if T3.Family() != VertexIterator || E5.Family() != ScanningEdgeIterator ||
		L2.Family() != LookupEdgeIterator {
		t.Fatal("families wrong")
	}
	if VertexIterator.String() == "" || Family(9).String() != "Family(9)" {
		t.Fatal("family names wrong")
	}
}

func TestIntersectHelpers(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{2, 3, 4, 7, 9}
	var got []int32
	comps := intersect(a, b, func(v int32) { got = append(got, v) })
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("intersect = %v", got)
	}
	if comps <= 0 || comps > int64(len(a)+len(b)) {
		t.Fatalf("comparisons = %d out of bounds", comps)
	}
	if p := prefixBelow(a, 5); len(p) != 2 || p[1] != 3 {
		t.Fatalf("prefixBelow = %v", p)
	}
	if p := prefixBelow(a, 0); len(p) != 0 {
		t.Fatalf("prefixBelow low = %v", p)
	}
	if sfx := suffixAbove(a, 3); len(sfx) != 2 || sfx[0] != 5 {
		t.Fatalf("suffixAbove = %v", sfx)
	}
	if sfx := suffixAbove(a, 99); len(sfx) != 0 {
		t.Fatalf("suffixAbove high = %v", sfx)
	}
	// Self-intersection finds everything with len(a) <= comps <= 2len(a).
	count := 0
	intersect(a, a, func(int32) { count++ })
	if count != len(a) {
		t.Fatalf("self intersection found %d", count)
	}
}

func TestListingOnParetoGraph(t *testing.T) {
	// End-to-end on the paper's workload: heavy-tailed Pareto graph via
	// the residual-degree generator. All four core methods must agree,
	// and the paper's qualitative cost facts must hold: θ_D beats θ_A
	// for T1 by a wide margin (§4.2), and E1 = T1 + T2 per Prop. 2.
	pareto := degseq.StandardPareto(1.5)
	g, _, err := gen.ParetoGraph(pareto, 4000, degseq.RootTruncation, stats.NewRNGFromSeed(321))
	if err != nil {
		t.Fatal(err)
	}
	oD := orientBy(t, g, order.KindDescending, 1)
	oA := orientBy(t, g, order.KindAscending, 1)
	want := Count(oD, T1)
	for _, m := range Core {
		if got := Count(oA, m); got != want {
			t.Fatalf("%v under θ_A found %d, want %d", m, got, want)
		}
	}
	cT1D, cT1A := ModelCost(oD, T1), ModelCost(oA, T1)
	if cT1D*2 > cT1A {
		t.Fatalf("θ_D (%v) should be far cheaper than θ_A (%v) for T1", cT1D, cT1A)
	}
}

func rngFor(seed uint64) *stats.RNG { return stats.NewRNGFromSeed(seed) }

func TestEveryMethodEveryOrderMatchesBruteForceOnPareto(t *testing.T) {
	// Cross-validation sweep on the paper's actual workload: every one of
	// the 18 methods, under ascending, descending and uniform orders, must
	// emit exactly the brute-force triangle set of seeded Pareto graphs,
	// under both root and linear truncation.
	kinds := []order.Kind{order.KindAscending, order.KindDescending, order.KindUniform}
	p := degseq.StandardPareto(1.5)
	for ti, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		g, _, err := gen.ParetoGraph(p, 400, trunc, rngFor(uint64(1000+ti)))
		if err != nil {
			t.Fatal(err)
		}
		var brute []triKey
		BruteForce(g, func(x, y, z int32) { brute = append(brute, triKey{x, y, z}) })
		if len(brute) == 0 {
			t.Fatalf("truncation %v: Pareto test graph has no triangles", trunc)
		}
		for _, kind := range kinds {
			o := orientBy(t, g, kind, uint64(5*ti+3))
			// Oriented methods report relabeled ids; push the brute-force
			// set through the orientation's rank map for comparison.
			want := make(map[triKey]bool, len(brute))
			for _, tri := range brute {
				k := triKey{o.Rank(tri[0]), o.Rank(tri[1]), o.Rank(tri[2])}
				sort.Slice(k[:], func(i, j int) bool { return k[i] < k[j] })
				want[k] = true
			}
			for _, m := range Methods {
				got, s := collect(o, m)
				if int64(len(got)) != s.Triangles {
					t.Fatalf("trunc %v order %v method %v: visitor saw %d, stats %d",
						trunc, kind, m, len(got), s.Triangles)
				}
				if len(got) != len(want) {
					t.Fatalf("trunc %v order %v method %v: %d triangles, brute force %d",
						trunc, kind, m, len(got), len(want))
				}
				for k := range want {
					if !got[k] {
						t.Fatalf("trunc %v order %v method %v: missed triangle %v",
							trunc, kind, m, k)
					}
				}
			}
		}
	}
}

func orientRanked(g *graph.Graph, rank []int32) (*digraph.Oriented, error) {
	return digraph.Orient(g, rank)
}

// sortedTriangles returns the triangle list sorted, for deep comparisons.
func sortedTriangles(set map[triKey]bool) []triKey {
	out := make([]triKey, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

func TestTriangleIdentityAcrossFamilies(t *testing.T) {
	// Same triangle set element-by-element (not just count), VI vs SEI vs
	// LEI, on a clustered graph.
	g := randomTestGraph(t, 8, 45, 260)
	o := orientBy(t, g, order.KindRoundRobin, 4)
	s1, _ := collect(o, T2)
	s2, _ := collect(o, E4)
	s3, _ := collect(o, L5)
	a, b, c := sortedTriangles(s1), sortedTriangles(s2), sortedTriangles(s3)
	if len(a) != len(b) || len(b) != len(c) {
		t.Fatalf("counts differ: %d %d %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] || b[i] != c[i] {
			t.Fatalf("triangle %d differs: %v %v %v", i, a[i], b[i], c[i])
		}
	}
}
