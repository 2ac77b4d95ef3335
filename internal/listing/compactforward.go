package listing

import (
	"cmp"
	"slices"

	"trilist/internal/graph"
)

// BaselineStats reports the meters of a CompactForward run.
type BaselineStats struct {
	// Triangles found (each exactly once).
	Triangles int64
	// Ops counts the merge comparisons.
	Ops int64
}

// CompactForward is Latapy's refinement [28] of Forward: instead of
// growing dynamic vectors, it relabels nodes by descending degree, sorts
// the adjacency arrays once, and intersects truncated prefixes in place —
// the paper identifies it as an E2-family method. Provided as the
// literature baseline; Ops counts actual merge comparisons, which tests
// bound by ModelCost(o, E2) under the descending order.
func CompactForward(g *graph.Graph, visit Visitor) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	n := g.NumNodes()
	// Relabel by descending degree: label[v] smaller == higher degree...
	// For E2 semantics we give the largest degree the smallest label,
	// exactly the paper's θ_D, and orient toward smaller labels.
	byDeg := make([]int32, n)
	for i := range byDeg {
		byDeg[i] = int32(i)
	}
	slices.SortFunc(byDeg, func(x, y int32) int {
		if c := cmp.Compare(g.Degree(y), g.Degree(x)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	label := make([]int32, n)
	for pos, v := range byDeg {
		label[v] = int32(pos)
	}
	// Truncated adjacency: for each label v, out[v] = neighbor labels < v,
	// sorted ascending.
	out := make([][]int32, n)
	for v := 0; v < n; v++ {
		lv := label[v]
		for _, w := range g.Neighbors(int32(v)) {
			if label[w] < lv {
				out[lv] = append(out[lv], label[w])
			}
		}
	}
	for v := range out {
		slices.Sort(out[v])
	}
	inv := byDeg // inv[label] = original node
	// E2 sweep: visit y, intersect N⁺(y) with N⁺(z) prefix below y for
	// every in-neighbor z (iterated here via z's out list containing y).
	for z := int32(0); int(z) < n; z++ {
		for _, y := range out[z] {
			s.Ops += intersect(out[y], prefixBelow(out[z], y), func(x int32) {
				// Sort the original IDs of the triangle.
				a, b, c := inv[x], inv[y], inv[z]
				if a > b {
					a, b = b, a
				}
				if b > c {
					b, c = c, b
				}
				if a > b {
					a, b = b, a
				}
				s.Triangles++
				visit(a, b, c)
			})
		}
	}
	return s
}
