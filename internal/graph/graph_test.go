package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"trilist/internal/stats"
)

// triangleGraph is K3 plus a pendant: edges (0,1),(0,2),(1,2),(2,3).
func triangleGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicProperties(t *testing.T) {
	g := triangleGraph(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(2), g.Degree(3))
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.MeanDegree() != 2 {
		t.Fatalf("MeanDegree = %v", g.MeanDegree())
	}
	want := []int32{0, 1, 3}
	got := g.Neighbors(2)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleGraph(t)
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {0, 3, false},
		{1, 3, false}, {0, 0, false}, {3, 3, false},
	}
	for _, c := range cases {
		if got := slices.Contains(g.Neighbors(c.u), c.v); got != c.want {
			t.Errorf("%d in Neighbors(%d) = %v, want %v", c.v, c.u, got, c.want)
		}
	}
}

func TestEdgesIterationOrder(t *testing.T) {
	g := triangleGraph(t)
	es := edgeSlice(g)
	if want := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 3}}; !slices.Equal(es, want) {
		t.Fatalf("Edges visited %v, want %v", es, want)
	}
	// Early stop.
	count := 0
	g.Edges(func(Edge) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d edges", count)
	}
}

func TestFromEdgesErrors(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 0}}, false); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 5}}, false); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if _, err := FromEdges(-1, nil, false); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 1}, {1, 0}}, false); err == nil {
		t.Fatal("duplicate accepted without dedupe")
	}
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}}, true)
	if err != nil {
		t.Fatalf("dedupe failed: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("after dedupe m = %d, want 1", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("zero Graph should be empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g2, err := FromEdges(5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || g2.NumEdges() != 0 || g2.MaxDegree() != 0 {
		t.Fatal("edgeless graph wrong")
	}
}

func TestConnectedComponents(t *testing.T) {
	g, _ := FromEdges(6, []Edge{{0, 1}, {1, 2}, {3, 4}}, false)
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Fatal("component {0,1,2} split")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Fatal("component {3,4} wrong")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatal("isolated node merged into an edge component")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := triangleGraph(t)
	h := g.DegreeHistogram()
	// degrees: 2,2,3,1 -> hist[1]=1, hist[2]=2, hist[3]=1
	want := []int64{0, 1, 2, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	// Property: any random edge set builds a graph that validates, with
	// degree sum = 2m, and HasEdge symmetric.
	f := func(seed uint64, rawN uint8, rawM uint16) bool {
		n := int(rawN%50) + 2
		m := int(rawM % 200)
		r := stats.NewRNGFromSeed(seed)
		edges := make([]Edge, 0, m)
		for i := 0; i < m; i++ {
			u := int32(r.IntN(n))
			v := int32(r.IntN(n))
			if u == v {
				continue
			}
			edges = append(edges, Edge{u, v})
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		var sum int64
		for v := int32(0); int(v) < n; v++ {
			sum += int64(g.Degree(v))
		}
		if sum != 2*g.NumEdges() {
			return false
		}
		for i := 0; i < 20; i++ {
			u := int32(r.IntN(n))
			v := int32(r.IntN(n))
			if slices.Contains(g.Neighbors(u), v) != slices.Contains(g.Neighbors(v), u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// edgeSlice collects the edges g.Edges visits, in visit order.
func edgeSlice(g *Graph) []Edge {
	var edges []Edge
	g.Edges(func(e Edge) bool {
		edges = append(edges, e)
		return true
	})
	return edges
}
