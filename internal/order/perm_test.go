package order

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"trilist/internal/graph"
	"trilist/internal/stats"
)

func TestAscendingDescending(t *testing.T) {
	a := Ascending(5)
	for i := int32(0); i < 5; i++ {
		if a[i] != i {
			t.Fatalf("ascending[%d] = %d", i, a[i])
		}
	}
	d := Descending(5)
	for i := int32(0); i < 5; i++ {
		if d[i] != 4-i {
			t.Fatalf("descending[%d] = %d", i, d[i])
		}
	}
}

func TestRoundRobinPaperExample(t *testing.T) {
	// n = 5, paper's 1-based eq. (32): positions 1..5 → labels 3,2,4,1,5,
	// i.e. 0-based 0..4 → 2,1,3,0,4. Largest degrees (late positions) land
	// at the outside labels {0, 4}; smallest in the middle.
	p := RoundRobin(5)
	want := Perm{2, 1, 3, 0, 4}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("RR(5) = %v, want %v", p, want)
		}
	}
}

func TestRoundRobinSpreadsLargeDegreeOutside(t *testing.T) {
	// The top-k positions (largest degrees) must map near the edges of
	// the label range, alternating sides.
	n := 1000
	p := RoundRobin(n)
	for k := 0; k < 10; k++ {
		label := int(p[n-1-k])
		distToEdge := label
		if n-1-label < distToEdge {
			distToEdge = n - 1 - label
		}
		if distToEdge > k {
			t.Fatalf("position %d (rank %d from top) mapped to label %d, %d from edge",
				n-1-k, k, label, distToEdge)
		}
	}
}

func TestCRRGathersLargeDegreeMiddle(t *testing.T) {
	n := 1000
	p := ComplementaryRoundRobin(n)
	for k := 0; k < 10; k++ {
		label := int(p[n-1-k])
		distToMid := int(math.Abs(float64(label) - float64(n-1)/2))
		if distToMid > k/2+1 {
			t.Fatalf("top-%d degree mapped to label %d, %d from middle", k, label, distToMid)
		}
	}
}

func TestPermsAreBijections(t *testing.T) {
	rng := stats.NewRNGFromSeed(8)
	f := func(raw uint16) bool {
		n := int(raw%500) + 1
		for _, p := range []Perm{
			Ascending(n), Descending(n), RoundRobin(n),
			ComplementaryRoundRobin(n), Uniform(n, rng.Child()),
		} {
			if p.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseComplementAlgebra(t *testing.T) {
	f := func(seed uint64, raw uint16) bool {
		n := int(raw%200) + 1
		p := Uniform(n, stats.NewRNGFromSeed(seed))
		// Reverse and complement are involutions.
		if !permEq(p.Reverse().Reverse(), p) || !permEq(p.Complement().Complement(), p) {
			return false
		}
		// They commute: (θ')'' = (θ'')'.
		if !permEq(p.Reverse().Complement(), p.Complement().Reverse()) {
			return false
		}
		// Inverse round-trips.
		inv := p.Inverse()
		for i, v := range p {
			if inv[v] != int32(i) {
				return false
			}
		}
		return p.Reverse().Validate() == nil && p.Complement().Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDescendingIsReverseOfAscending(t *testing.T) {
	if !permEq(Descending(17), Ascending(17).Reverse()) {
		t.Fatal("descending != reverse(ascending)")
	}
	// Ascending and descending are each other's complement too (they are
	// monotone), but RR is its own... check CRR = complement(RR) per
	// definition.
	if !permEq(ComplementaryRoundRobin(9), RoundRobin(9).Complement()) {
		t.Fatal("CRR != complement(RR)")
	}
}

func permEq(a, b Perm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestValidateRejects pins the error text for each way a perm can fail
// to be a bijection; the first offending index in scan order is named.
func TestValidateRejects(t *testing.T) {
	oob := Ascending(400)
	oob[123], oob[300] = 400, -1
	dup := Ascending(400)
	dup[399], dup[41] = dup[40], dup[2]
	for _, tc := range []struct {
		p    Perm
		want string
	}{
		{Perm{0, 0}, "order: label 0 assigned twice"},
		{Perm{0, 2}, "order: perm[1] = 2 out of range [0,2)"},
		{Perm{-1, 0}, "order: perm[0] = -1 out of range [0,2)"},
		{oob, "order: perm[123] = 400 out of range [0,400)"},
		{dup, "order: label 2 assigned twice"},
	} {
		if err := tc.p.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate(%v...) = %v, want %q", tc.p[:2], err, tc.want)
		}
	}
}

func TestOptPairsLargeRWithSmallH(t *testing.T) {
	// For increasing r and h(x) = x²/2 (T1's h, increasing), OPT must be
	// the descending permutation: last position (largest degree) → label 0.
	n := 64
	p := Opt(n, func(x float64) float64 { return x * x / 2 }, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !permEq(p, Descending(n)) {
		t.Fatalf("OPT(T1 h, r increasing) != descending: %v", p[:8])
	}
	// For decreasing r it must be ascending.
	p2 := Opt(n, func(x float64) float64 { return x * x / 2 }, false)
	if !permEq(p2, Ascending(n)) {
		t.Fatal("OPT(T1 h, r decreasing) != ascending")
	}
}

func TestOptRecoversRoundRobinShape(t *testing.T) {
	// For T2's h(x) = x(1-x) (peak at center) and increasing r, OPT must
	// send large degrees to the outside — the RR family. The exact label
	// sequence may differ from eq. (32) by tie-breaks, so check the
	// structural property instead of equality.
	n := 101
	p := Opt(n, func(x float64) float64 { return x * (1 - x) }, true)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		label := int(p[n-1-k])
		distToEdge := label
		if n-1-label < distToEdge {
			distToEdge = n - 1 - label
		}
		if distToEdge > k {
			t.Fatalf("OPT for T2: top-%d degree at label %d (dist %d)", k, label, distToEdge)
		}
	}
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n-1)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1)}
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRankDegreeBased(t *testing.T) {
	// Star K1,3: center degree 3, leaves degree 1.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := Rank(g, KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Center (highest degree) must get label 0 under θ_D.
	if rank[0] != 0 {
		t.Fatalf("descending rank of center = %d, want 0", rank[0])
	}
	rankA, err := Rank(g, KindAscending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rankA[0] != 3 {
		t.Fatalf("ascending rank of center = %d, want 3", rankA[0])
	}
}

func TestRankUniformNeedsRNG(t *testing.T) {
	g := pathGraph(t, 4)
	if _, err := Rank(g, KindUniform, nil); err == nil {
		t.Fatal("uniform rank without RNG accepted")
	}
	r1, err := Rank(g, KindUniform, stats.NewRNGFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Rank(g, KindUniform, stats.NewRNGFromSeed(4))
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("uniform rank not deterministic by seed")
		}
	}
}

func TestRankAllKindsAreBijections(t *testing.T) {
	g := pathGraph(t, 57)
	rng := stats.NewRNGFromSeed(17)
	for _, k := range Kinds {
		rank, err := Rank(g, k, rng)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := Perm(rank).Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}

func TestRankFromPermErrors(t *testing.T) {
	g := pathGraph(t, 4)
	if _, err := RankFromPerm(g, Perm{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RankFromPerm(g, Perm{0, 0, 1, 2}); err == nil {
		t.Fatal("non-bijection accepted")
	}
}

func TestDegenerateRankTree(t *testing.T) {
	// Trees have degeneracy 1: every node's later-removed neighbors number
	// at most 1, so under the orientation max out-degree must be 1.
	g := pathGraph(t, 50)
	rank := DegenerateRank(g)
	if err := Perm(rank).Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 50; v++ {
		out := 0
		for _, w := range g.Neighbors(int32(v)) {
			if rank[w] < rank[int32(v)] {
				out++
			}
		}
		if out > 1 {
			t.Fatalf("tree orientation gives out-degree %d at node %d", out, v)
		}
	}
}

func TestDegenerateRankCompleteGraph(t *testing.T) {
	// K5 has degeneracy 4; max out-degree must be exactly 4 for the first
	// peeled node and the orientation must still be acyclic (bijection).
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	g, _ := graph.FromEdges(5, edges, false)
	rank := DegenerateRank(g)
	if err := Perm(rank).Validate(); err != nil {
		t.Fatal(err)
	}
	maxOut := 0
	for v := int32(0); v < 5; v++ {
		out := 0
		for _, w := range g.Neighbors(v) {
			if rank[w] < rank[v] {
				out++
			}
		}
		if out > maxOut {
			maxOut = out
		}
	}
	if maxOut != 4 {
		t.Fatalf("K5 max out-degree %d, want 4", maxOut)
	}
}

func TestDegenerateRankStarPlusTriangle(t *testing.T) {
	// A big star with a small triangle: degeneracy is 2 (from the
	// triangle), so max out-degree under smallest-last must be <= 2 even
	// though the star center has huge degree.
	n := 103
	var edges []graph.Edge
	for i := int32(1); i < 100; i++ {
		edges = append(edges, graph.Edge{U: 0, V: i})
	}
	edges = append(edges,
		graph.Edge{U: 100, V: 101},
		graph.Edge{U: 101, V: 102},
		graph.Edge{U: 100, V: 102})
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	rank := DegenerateRank(g)
	if err := Perm(rank).Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < n; v++ {
		out := 0
		for _, w := range g.Neighbors(v) {
			if rank[w] < rank[v] {
				out++
			}
		}
		if out > 2 {
			t.Fatalf("out-degree %d at node %d exceeds degeneracy 2", out, v)
		}
	}
}

func TestDegenerateMinimizesMaxOutDegreeVsOthers(t *testing.T) {
	// On a random heavy-tailed graph, the degenerate orientation's max
	// out-degree must not exceed any named order's.
	g := erdosRenyiForTest(t, 500, 2500)
	rng := stats.NewRNGFromSeed(33)
	degenRank := DegenerateRank(g)
	degenMax := maxOutDeg(g, degenRank)
	for _, k := range []Kind{KindAscending, KindDescending, KindRoundRobin, KindCRR, KindUniform} {
		rank, err := Rank(g, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m := maxOutDeg(g, rank); m < degenMax {
			t.Fatalf("order %v achieves max out-degree %d < degenerate's %d", k, m, degenMax)
		}
	}
}

func maxOutDeg(g *graph.Graph, rank []int32) int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		out := 0
		for _, w := range g.Neighbors(int32(v)) {
			if rank[w] < rank[int32(v)] {
				out++
			}
		}
		if out > max {
			max = out
		}
	}
	return max
}

func erdosRenyiForTest(t *testing.T, n int, m int) *graph.Graph {
	t.Helper()
	rng := stats.NewRNGFromSeed(1234)
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		u := int32(rng.IntN(n))
		v := int32(rng.IntN(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegeneracyKnownGraphs(t *testing.T) {
	// Path: 1. K5: 4. Star+triangle: 2. Empty: 0.
	if got := Degeneracy(pathGraph(t, 20)); got != 1 {
		t.Errorf("path degeneracy = %d, want 1", got)
	}
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	k5, _ := graph.FromEdges(5, edges, false)
	if got := Degeneracy(k5); got != 4 {
		t.Errorf("K5 degeneracy = %d, want 4", got)
	}
	empty, _ := graph.FromEdges(3, nil, false)
	if got := Degeneracy(empty); got != 0 {
		t.Errorf("edgeless degeneracy = %d, want 0", got)
	}
}

func TestDegeneracyIsMinMaxOutDegree(t *testing.T) {
	// The degeneracy lower-bounds the max out-degree of EVERY acyclic
	// orientation built from our named orders.
	g := erdosRenyiForTest(t, 300, 1500)
	k := Degeneracy(g)
	rng := stats.NewRNGFromSeed(77)
	for _, kind := range Kinds {
		rank, err := Rank(g, kind, rng)
		if err != nil {
			t.Fatal(err)
		}
		if m := maxOutDeg(g, rank); m < k {
			t.Fatalf("order %v achieves max out-degree %d below degeneracy %d", kind, m, k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds {
		if k.String() == "" || k.ShortName() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string")
	}
	if KindDescending.ShortName() != "θ_D" {
		t.Fatal("short name wrong")
	}
}

func TestRankUnknownKind(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := Rank(g, Kind(42), nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestParseKind: every spelling trilist, trid and trimodel accept
// resolves to its order in any case, each Kind parses from its String
// form, and anything else — "auto" included — is an error.
func TestParseKind(t *testing.T) {
	for _, c := range []struct {
		want  Kind
		names []string
	}{
		{KindAscending, []string{"ascending", "asc", "a"}},
		{KindDescending, []string{"descending", "desc", "d"}},
		{KindRoundRobin, []string{"round-robin", "roundrobin", "rr"}},
		{KindCRR, []string{"complementary-round-robin", "crr"}},
		{KindUniform, []string{"uniform", "random", "u"}},
		{KindDegenerate, []string{"degenerate", "degen", "smallest-last"}},
	} {
		for _, name := range c.names {
			for _, s := range []string{name, strings.ToUpper(name)} {
				if got, err := ParseKind(s); err != nil || got != c.want {
					t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, c.want)
				}
			}
		}
	}
	for _, k := range Kinds {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, s := range []string{"", "auto", "zigzag", "θ_D", "round robin", " asc"} {
		if got, err := ParseKind(s); err == nil {
			t.Errorf("ParseKind(%q) = %v, want an error", s, got)
		}
	}
}
