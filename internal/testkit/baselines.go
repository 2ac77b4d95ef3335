package testkit

import (
	"cmp"
	"slices"

	"trilist/internal/graph"
	"trilist/internal/hashset"
)

// This file holds the pre-orientation algorithms the paper situates its
// framework against (§1.1, §2.4): brute force, the classic node and edge
// iterators, Chiba–Nishizeki and Forward. They operate on the undirected
// graph directly and report each triangle once with original node IDs
// ordered x < y < z. Tests use them as ground truth and their meters to
// confirm the paper's claims, e.g. that the classic iterators examine
// Θ(Σ d²) candidates. (Compact Forward stays in package listing.)

// BaselineStats reports the meters of a baseline run.
type BaselineStats struct {
	// Triangles found (each exactly once).
	Triangles int64
	// Ops is the algorithm's dominant operation count: candidate pairs
	// for node iterators, merge comparisons for edge iterators, adjacency
	// probes for brute force, scan steps for Chiba–Nishizeki.
	Ops int64
}

// BruteForce checks all C(n,3) node triples against the adjacency
// structure — the textbook Θ(n³) strawman (§1.1). Only sensible for tiny
// graphs. A nil visit only counts.
func BruteForce(g *graph.Graph, visit func(x, y, z int32)) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	n := int32(g.NumNodes())
	for x := int32(0); x < n; x++ {
		for y := x + 1; y < n; y++ {
			for z := y + 1; z < n; z++ {
				s.Ops++
				if HasEdge(g, x, y) && HasEdge(g, x, z) && HasEdge(g, y, z) {
					s.Triangles++
					visit(x, y, z)
				}
			}
		}
	}
	return s
}

// ClassicNodeIterator is the un-oriented vertex iterator [33], [36]: at
// every node it checks edge existence between all C(d, 2) neighbor pairs
// with a hash probe, examining Θ(Σ d²) candidates — the paper's reference
// point for how much acyclic orientation saves. Triangles are emitted
// only from their smallest node to avoid triple-reporting.
func ClassicNodeIterator(g *graph.Graph, visit func(x, y, z int32)) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	edges := hashset.New(int(g.NumEdges()))
	n := int32(g.NumNodes())
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges.Add(u, v)
			}
		}
	}
	for v := int32(0); v < n; v++ {
		adj := g.Neighbors(v)
		for i := 0; i < len(adj); i++ {
			for j := i + 1; j < len(adj); j++ {
				s.Ops++
				a, b := adj[i], adj[j]
				if edges.Contains(a, b) {
					// Triangle {v, a, b} found at each of its corners;
					// report it only from the smallest.
					if v < a {
						s.Triangles++
						visit(v, a, b)
					}
				}
			}
		}
	}
	return s
}

// ClassicEdgeIterator is the un-oriented edge iterator [14], [28]: it
// merge-intersects the full adjacency lists of every edge's endpoints.
// Each triangle appears at all three of its edges; it is reported only at
// the edge opposite its largest node.
func ClassicEdgeIterator(g *graph.Graph, visit func(x, y, z int32)) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	g.Edges(func(e graph.Edge) bool {
		u, v := e.U, e.V // u < v
		s.Ops += intersect(g.Neighbors(u), g.Neighbors(v), func(w int32) {
			if w > v {
				s.Triangles++
				visit(u, v, w)
			}
		})
		return true
	})
	return s
}

// ChibaNishizeki implements the O(δm) algorithm of [13]: process nodes in
// descending degree order; for the current node v, mark its unprocessed
// neighbors, then for each unprocessed neighbor u scan u's unprocessed
// neighbors for marks — every hit closes a triangle through v — and
// finally delete v. Deletion caps each scan by the arboricity bound.
func ChibaNishizeki(g *graph.Graph, visit func(x, y, z int32)) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	n := g.NumNodes()
	deleted := make([]bool, n)
	marked := make([]bool, n)
	for _, v := range byDescendingDegree(g) {
		// Mark v's remaining neighbors.
		for _, u := range g.Neighbors(v) {
			if !deleted[u] {
				marked[u] = true
			}
		}
		for _, u := range g.Neighbors(v) {
			if deleted[u] {
				continue
			}
			for _, w := range g.Neighbors(u) {
				if deleted[w] || w == v {
					continue
				}
				s.Ops++
				// Keeping u marked until v's loop ends plus the u < w
				// filter reports {v, u, w} once.
				if marked[w] && u < w {
					x, y, z := sortTriple(v, u, w)
					s.Triangles++
					visit(x, y, z)
				}
			}
		}
		for _, u := range g.Neighbors(v) {
			marked[u] = false
		}
		deleted[v] = true
	}
	return s
}

// Forward is Schank and Wagner's algorithm [33]: nodes are processed in
// descending degree order, and each node t accumulates a dynamic list
// A(t) of already-processed neighbors; for an edge (s, t) with s
// processed first, triangles through it are A(s) ∩ A(t). The dynamic
// lists stay sorted by processing order, so the intersection is a merge.
func Forward(g *graph.Graph, visit func(x, y, z int32)) BaselineStats {
	var s BaselineStats
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	n := g.NumNodes()
	// eta[v] = processing position of v, descending degree.
	byDeg := byDescendingDegree(g)
	eta := make([]int32, n)
	for pos, v := range byDeg {
		eta[v] = int32(pos)
	}
	// A(v): processing positions (eta) of v's already-processed
	// neighbors. Appending in processing order keeps each list sorted
	// ascending by eta, so the intersection is a plain merge.
	a := make([][]int32, n)
	for _, sNode := range byDeg {
		for _, tNode := range g.Neighbors(sNode) {
			if eta[sNode] >= eta[tNode] {
				continue // t processed before s (or is s): skip
			}
			s.Ops += intersect(a[sNode], a[tNode], func(wEta int32) {
				x, y, z := sortTriple(sNode, tNode, byDeg[wEta])
				s.Triangles++
				visit(x, y, z)
			})
			a[tNode] = append(a[tNode], eta[sNode])
		}
	}
	return s
}

// byDescendingDegree lists g's nodes by (degree desc, id asc).
func byDescendingDegree(g *graph.Graph) []int32 {
	nodes := make([]int32, g.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	slices.SortFunc(nodes, func(a, b int32) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return nodes
}

// intersect merge-scans two ascending lists, invoking visit for every
// common element, and returns the number of comparisons performed.
func intersect(a, b []int32, visit func(int32)) int64 {
	var i, j int
	var comps int64
	for i < len(a) && j < len(b) {
		comps++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			visit(a[i])
			i++
			j++
		}
	}
	return comps
}

func sortTriple(a, b, c int32) (x, y, z int32) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}
