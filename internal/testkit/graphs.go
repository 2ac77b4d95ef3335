// Package testkit holds what the tests of several packages share: the
// graph families they run on, the known-answer zoo, structural helpers
// over graph.Graph, the historical triangle-listing baselines used as
// oracles, and a Kolmogorov–Smirnov distance.
//
// No command imports testkit. It imports graph, digraph, hashset,
// degseq, gen and stats, so the tests of those packages do not import it (that
// would close an import cycle); they keep what they need locally.
package testkit

import (
	"bytes"
	"slices"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/stats"
)

// ParetoGraph generates a residual-degree graph on n nodes whose degrees
// follow the standard Pareto(alpha) law truncated by trunc, from seed.
func ParetoGraph(tb testing.TB, alpha float64, n int, trunc degseq.Truncation, seed uint64) *graph.Graph {
	tb.Helper()
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(alpha), n, trunc, stats.NewRNGFromSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// ERGraphText generates an Erdős–Rényi G(n, m) graph from seed and
// returns it as an edge-list text body.
func ERGraphText(tb testing.TB, n int, m int64, seed uint64) []byte {
	tb.Helper()
	g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(seed))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fromEdges builds an n-node graph from an edge list (duplicates
// collapsed), failing the test on a malformed list.
func fromEdges(tb testing.TB, n int, edges []graph.Edge) *graph.Graph {
	tb.Helper()
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BoundaryGraphs covers the boundary shapes of a CSR image: empty,
// edgeless, a clique, and a sparse graph with isolated nodes at both
// ends.
func BoundaryGraphs(tb testing.TB) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"empty":    fromEdges(tb, 0, nil),
		"edgeless": fromEdges(tb, 5, nil),
		"k4":       fromEdges(tb, 4, completeEdges(4)),
		"sparse": fromEdges(tb, 100, []graph.Edge{
			{U: 3, V: 97}, {U: 41, V: 42}, {U: 3, V: 41},
		}),
	}
}

// Known is a graph whose triangle count follows from its construction.
type Known struct {
	Name      string
	G         *graph.Graph
	Triangles int64
}

// KnownGraphs is the known-answer zoo: graph families with closed-form
// triangle counts, so a bug shared by every listing path still shows.
func KnownGraphs(tb testing.TB) []Known {
	return []Known{
		{"K4", fromEdges(tb, 4, completeEdges(4)), 4},
		{"K12", fromEdges(tb, 12, completeEdges(12)), 12 * 11 * 10 / 6},
		{"W4", fromEdges(tb, 5, wheelEdges(4)), 4},
		{"W9", fromEdges(tb, 10, wheelEdges(9)), 9},
		{"F1", fromEdges(tb, 3, friendshipEdges(1)), 1},
		{"F7", fromEdges(tb, 15, friendshipEdges(7)), 7},
		{"B6", fromEdges(tb, 8, bookEdges(6)), 6},
		{"K3,4", fromEdges(tb, 7, bipartiteEdges(3, 4)), 0},
		{"Q4", fromEdges(tb, 16, hypercubeEdges(4)), 0},
		{"grid5x6", fromEdges(tb, 30, gridEdges(5, 6)), 0},
	}
}

// completeEdges is K_n.
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

// GraphsEqual reports whether g and h are bitwise-identical CSR
// structures: same offsets, same neighbor array.
func GraphsEqual(g, h *graph.Graph) bool {
	gOff, gNbr := g.CSR()
	hOff, hNbr := h.CSR()
	return slices.Equal(gOff, hOff) && slices.Equal(gNbr, hNbr)
}

// OrientationsEqual reports whether o and p are identical orientations:
// same labels, and the same out- and in-lists at every label, which pins
// every array of the CSR layout.
func OrientationsEqual(o, p *digraph.Oriented) bool {
	n := o.NumNodes()
	if p.NumNodes() != n {
		return false
	}
	for v := int32(0); int(v) < n; v++ {
		if o.Rank(v) != p.Rank(v) || !slices.Equal(o.Out(v), p.Out(v)) || !slices.Equal(o.In(v), p.In(v)) {
			return false
		}
	}
	return true
}

// HasEdge reports whether {u, v} is an edge of g, by binary search over
// the shorter adjacency list.
func HasEdge(g *graph.Graph, u, v int32) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// Degrees returns the degree of every node of g.
func Degrees(g *graph.Graph) []int64 {
	d := make([]int64, g.NumNodes())
	for v := range d {
		d[v] = int64(g.Degree(int32(v)))
	}
	return d
}

// EdgeSlice returns every edge of g with U < V, in ascending order.
func EdgeSlice(g *graph.Graph) []graph.Edge {
	edges := make([]graph.Edge, 0, g.NumEdges())
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	return edges
}
