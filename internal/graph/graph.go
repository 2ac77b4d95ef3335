// Package graph provides the undirected-graph substrate: an immutable
// compressed-sparse-row (CSR) representation with sorted adjacency lists,
// validating constructors, a text edge-list writer, and basic structural
// queries.
//
// The paper assumes simple undirected graphs G = (V, E) whose adjacency
// lists are "sorted ascending by node ID" (§2); the CSR layout here makes
// that invariant structural. Node IDs are dense integers 0..n-1 (the
// paper's 1..n, shifted), stored as int32 so that a billion-edge graph
// fits in 8 GB of adjacency.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// Edge is an undirected edge between two node IDs.
type Edge struct {
	U, V int32
}

// Graph is an immutable simple undirected graph in CSR form. Use
// FromEdges or FromCSR to construct one. The zero value is the empty graph.
type Graph struct {
	offsets []int64 // len n+1; adjacency of v is nbrs[offsets[v]:offsets[v+1]]
	nbrs    []int32 // len 2m; each adjacency list sorted ascending
}

// NumNodes returns n.
func (g *Graph) NumNodes() int {
	if g.offsets == nil {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.nbrs)) / 2 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// MaxDegree returns the largest degree L_n, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// MeanDegree returns 2m/n, or NaN for the empty graph.
func (g *Graph) MeanDegree() float64 {
	if g.NumNodes() == 0 {
		return math.NaN()
	}
	return float64(len(g.nbrs)) / float64(g.NumNodes())
}

// Edges calls fn once for every undirected edge with U < V. Iteration is
// in ascending (U, V) order. If fn returns false, iteration stops.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(Edge{U: u, V: v}) {
				return
			}
		}
	}
}

// Validate checks the structural invariants: offsets monotone, neighbor
// IDs in range, adjacency sorted strictly ascending (no duplicates), no
// self-loops, and symmetry (u ∈ N(v) ⇔ v ∈ N(u)). It is O(n + m) and
// intended for tests and for data loaded from external files.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if n == 0 {
		if len(g.nbrs) != 0 {
			return fmt.Errorf("graph: empty offsets with %d neighbors", len(g.nbrs))
		}
		return nil
	}
	if g.offsets[0] != 0 || g.offsets[n] != int64(len(g.nbrs)) {
		return fmt.Errorf("graph: offsets endpoints [%d, %d] do not match neighbor count %d",
			g.offsets[0], g.offsets[n], len(g.nbrs))
	}
	// Check the whole offsets array — monotone and in range — before any
	// slicing; corrupt (e.g. deserialized) offsets must produce an error
	// rather than an out-of-bounds panic.
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		if g.offsets[v] < 0 || g.offsets[v+1] > int64(len(g.nbrs)) {
			return fmt.Errorf("graph: offsets of node %d out of range [0, %d]", v, len(g.nbrs))
		}
	}
	for v := 0; v < n; v++ {
		adj := g.Neighbors(int32(v))
		for i, w := range adj {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: node %d has out-of-range neighbor %d", v, w)
			}
			if int32(v) == w {
				return fmt.Errorf("graph: self-loop at node %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of node %d not strictly ascending at index %d", v, i)
			}
		}
	}
	// Symmetry by cursors: walking v in ascending order, the arcs into
	// w arrive in ascending source order, which is the order of w's
	// sorted list, so each arc v->w must meet v at w's cursor, which
	// then advances. Every arc advances exactly one cursor and no
	// cursor passes the end of its list, so once all 2m arcs have
	// matched, every cursor sits at its end: no final pass is needed.
	cur := slices.Clone(g.offsets[:n])
	for v := int32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			c := cur[w]
			if c < g.offsets[w+1] && g.nbrs[c] == v {
				cur[w]++
				continue
			}
			// The entries of w's list before c were matched, in order,
			// by nodes below v. An entry x < v at c is an arc whose
			// reverse x->w is missing; otherwise w lacks v.
			if c < g.offsets[w+1] && g.nbrs[c] < v {
				v, w = w, g.nbrs[c]
			}
			return fmt.Errorf("graph: edge %d->%d present but %d->%d missing", v, w, w, v)
		}
	}
	return nil
}

// FromCSR adopts pre-built CSR arrays as a graph after checking every
// structural invariant (Validate). The slices are NOT copied: callers
// hand over ownership, which lets zero-copy loaders (mmap-backed files,
// arena builders) expose graphs without duplicating hundreds of
// megabytes of adjacency. A graph over read-only mapped memory is fully
// usable — nothing in this package writes to a constructed graph.
func FromCSR(offsets []int64, nbrs []int32) (*Graph, error) {
	if len(offsets) == 0 {
		if len(nbrs) != 0 {
			return nil, fmt.Errorf("graph: %d neighbors with no offsets", len(nbrs))
		}
		return &Graph{}, nil
	}
	g := &Graph{offsets: offsets, nbrs: nbrs}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// CSR returns the raw offset and neighbor arrays. Both alias the
// graph's internal storage and must not be modified; they are the
// serialization surface for binary on-disk formats.
func (g *Graph) CSR() (offsets []int64, nbrs []int32) { return g.offsets, g.nbrs }

// FromEdges builds a simple graph on n nodes from an edge list. Self-loops
// are rejected; duplicate edges are rejected unless dedupe is true, in
// which case they are silently collapsed.
func FromEdges(n int, edges []Edge, dedupe bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	deg := make([]int64, n)
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: edge %d is a self-loop at node %d", i, e.U)
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge %d = (%d,%d) out of range [0,%d)", i, e.U, e.V, n)
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	nbrs := make([]int32, offsets[n])
	fill := make([]int64, n)
	copy(fill, offsets[:n])
	for _, e := range edges {
		nbrs[fill[e.U]] = e.V
		fill[e.U]++
		nbrs[fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &Graph{offsets: offsets, nbrs: nbrs}
	// Finish each list in one walk: a strictly ascending list (every
	// list of an edge list in ascending (U, V) order, as WriteEdgeList
	// writes) is final; any other is sorted and its duplicates counted.
	dups := int64(0)
	for v := 0; v < n; v++ {
		adj := g.Neighbors(int32(v))
		for i := 1; i < len(adj); i++ {
			if adj[i] <= adj[i-1] {
				slices.Sort(adj)
				for j := 1; j < len(adj); j++ {
					if adj[j] == adj[j-1] {
						dups++
					}
				}
				break
			}
		}
	}
	if dups > 0 {
		if !dedupe {
			return nil, fmt.Errorf("graph: %d duplicate edge endpoints (pass dedupe to collapse)", dups)
		}
		g = g.dedup()
	}
	return g, nil
}

// dedup collapses equal consecutive neighbors. Only called on sorted CSR.
func (g *Graph) dedup() *Graph {
	n := g.NumNodes()
	offsets := make([]int64, n+1)
	nbrs := make([]int32, 0, len(g.nbrs))
	for v := 0; v < n; v++ {
		adj := g.Neighbors(int32(v))
		for i, w := range adj {
			if i > 0 && adj[i-1] == w {
				continue
			}
			nbrs = append(nbrs, w)
		}
		offsets[v+1] = int64(len(nbrs))
	}
	return &Graph{offsets: offsets, nbrs: nbrs}
}

// ConnectedComponents returns a component label in [0, k) for every node
// and the number k of components, via iterative BFS.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] < 0 {
					labels[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// DegreeHistogram returns counts[d] = number of nodes with degree d,
// for d in [0, MaxDegree()].
func (g *Graph) DegreeHistogram() []int64 {
	h := make([]int64, g.MaxDegree()+1)
	for v := 0; v < g.NumNodes(); v++ {
		h[g.Degree(int32(v))]++
	}
	return h
}
