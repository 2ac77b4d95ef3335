package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"trilist/internal/stats"
)

// The reference build: FromEdges as it was before the one-pass list
// finish — sort every list, then scan them all for duplicates.
// TestFromEdgesMatchesReference requires the same graph or error text
// from FromEdges on every input.

func referenceFromEdges(n int, edges []Edge, dedupe bool) (*Graph, error) {
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
	for v := 0; v < n; v++ {
		slices.Sort(nbrs[offsets[v]:offsets[v+1]])
	}
	dups := int64(0)
	for v := 0; v < n; v++ {
		adj := g.Neighbors(int32(v))
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				dups++
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

// referenceValid checks the per-list invariants directly: every
// neighbor in range, no self-loop, strict ascent, and the reverse arc
// found by a linear scan of the neighbor's list. (Validate used to
// look the reverse arc up with HasEdge, which searches the shorter of
// the two lists and so can find the arc itself; see the "reverse arc
// missing from the longer list" case.)
func referenceValid(g *Graph) bool {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		adj := g.Neighbors(int32(v))
		for i, w := range adj {
			if w < 0 || int(w) >= n || int32(v) == w || (i > 0 && adj[i-1] >= w) || !slices.Contains(g.Neighbors(w), int32(v)) {
				return false
			}
		}
	}
	return true
}

// randomEdges draws m endpoint pairs on n nodes, self-loops skipped.
func randomEdges(r *stats.RNG, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(r.IntN(n)), int32(r.IntN(n))
		if u != v {
			edges = append(edges, Edge{u, v})
		}
	}
	return edges
}

// TestFromEdgesMatchesReference builds presorted (EdgeSlice order, as
// WriteEdgeList writes), reversed and shuffled edge lists, with and
// without duplicate edges and reversed copies of edges, and requires
// FromEdges to return the reference build's graph (same CSR arrays) or its error
// text, with dedupe on and off.
func TestFromEdgesMatchesReference(t *testing.T) {
	r := stats.NewRNGFromSeed(5)
	for _, size := range []struct{ n, m int }{{2, 1}, {5, 8}, {60, 300}, {2000, 12000}} {
		base, err := FromEdges(size.n, randomEdges(r, size.n, size.m), true)
		if err != nil {
			t.Fatal(err)
		}
		sorted := edgeSlice(base)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		shuffled := slices.Clone(sorted)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.IntN(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		flipped := slices.Clone(shuffled)
		for i := range flipped {
			if r.IntN(2) == 0 {
				flipped[i] = Edge{flipped[i].V, flipped[i].U}
			}
		}
		both := slices.Clone(sorted) // each edge in both orientations
		for _, e := range sorted {
			both = append(both, Edge{e.V, e.U})
		}
		lists := map[string][]Edge{
			"sorted":            sorted,
			"reversed":          reversed,
			"shuffled":          shuffled,
			"flipped":           flipped,
			"both orientations": both,
			"sorted duplicates": append(slices.Clone(sorted), sorted[:len(sorted)/2+1]...),
			"adjacent repeats":  slices.Concat(sorted[:1], sorted),
		}
		for name, edges := range lists {
			for _, dedupe := range []bool{false, true} {
				want, wantErr := referenceFromEdges(size.n, edges, dedupe)
				g, err := FromEdges(size.n, edges, dedupe)
				what := fmt.Sprintf("n=%d %s dedupe=%v", size.n, name, dedupe)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s: err %v, reference err %v", what, err, wantErr)
				}
				if err == nil && !(slices.Equal(g.offsets, want.offsets) && slices.Equal(g.nbrs, want.nbrs)) {
					t.Fatalf("%s: graph differs from the reference build", what)
				}
			}
		}
	}
}

// TestValidateErrorClasses produces every Validate error class from a
// forged CSR, and checks that an asymmetry names a true witness in
// both directions: the walked node missing from a later list, and a
// list entry whose node lacks the reverse arc.
func TestValidateErrorClasses(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		nbrs    []int32
		want    string
	}{
		{"endpoints", []int64{0, 1, 1}, []int32{1, 0}, "offsets endpoints [0, 1] do not match neighbor count 2"},
		{"not monotone", []int64{0, 2, 1, 2}, []int32{1, 2}, "offsets not monotone at node 1"},
		{"offsets out of range", []int64{0, 5, 2}, []int32{1, 0}, "offsets of node 0 out of range [0, 2]"},
		{"neighbor out of range", []int64{0, 1, 2}, []int32{5, 0}, "node 0 has out-of-range neighbor 5"},
		{"negative neighbor", []int64{0, 1, 2}, []int32{-1, 0}, "node 0 has out-of-range neighbor -1"},
		{"self-loop", []int64{0, 1, 1}, []int32{0}, "self-loop at node 0"},
		{"not ascending", []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}, "adjacency of node 0 not strictly ascending at index 1"},
		{"duplicate", []int64{0, 2, 4}, []int32{1, 1, 0, 0}, "adjacency of node 0 not strictly ascending at index 1"},
		{"later list lacks v", []int64{0, 2, 3, 3}, []int32{1, 2, 0}, "edge 0->2 present but 2->0 missing"},
		{"earlier list lacks v", []int64{0, 0, 0, 1}, []int32{1}, "edge 2->1 present but 1->2 missing"},
		{"entry without reverse", []int64{0, 0, 1, 3}, []int32{2, 0, 1}, "edge 2->0 present but 0->2 missing"},
		{"reverse arc missing from the longer list", []int64{0, 1, 3, 4, 5}, []int32{1, 2, 3, 1, 1}, "edge 0->1 present but 1->0 missing"},
		{"unsorted later list", []int64{0, 1, 3, 4}, []int32{1, 2, 0, 1}, "adjacency of node 1 not strictly ascending at index 1"},
	}
	for _, tc := range cases {
		_, err := FromCSR(tc.offsets, tc.nbrs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate error %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := FromCSR(nil, []int32{0}); err == nil || !strings.Contains(err.Error(), "1 neighbors with no offsets") {
		t.Errorf("no offsets: error %v", err)
	}
	if err := (&Graph{nbrs: []int32{1}}).Validate(); err == nil || !strings.Contains(err.Error(), "empty offsets with 1 neighbors") {
		t.Errorf("empty offsets: error %v", err)
	}
}

// TestValidateMatchesReference corrupts valid graphs one neighbor
// entry at a time and requires Validate to reject exactly what the
// reference check rejects; every asymmetry it reports must be true.
func TestValidateMatchesReference(t *testing.T) {
	r := stats.NewRNGFromSeed(11)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.IntN(12)
		g, err := FromEdges(n, randomEdges(r, n, 1+r.IntN(3*n)), true)
		if err != nil {
			t.Fatal(err)
		}
		nbrs := slices.Clone(g.nbrs)
		if len(nbrs) > 0 {
			nbrs[r.IntN(len(nbrs))] = int32(r.IntN(n+2) - 1)
		}
		h := &Graph{offsets: g.offsets, nbrs: nbrs}
		err = h.Validate()
		if (err == nil) != referenceValid(h) {
			t.Fatalf("trial %d: Validate %v, reference valid %v on %v %v", trial, err, referenceValid(h), h.offsets, nbrs)
		}
		var a, b int32
		if err != nil {
			if _, scanErr := fmt.Sscanf(err.Error(), "graph: edge %d->%d present but", &a, &b); scanErr == nil {
				if !slices.Contains(h.Neighbors(a), b) || slices.Contains(h.Neighbors(b), a) {
					t.Fatalf("trial %d: false witness %q on %v %v", trial, err, h.offsets, nbrs)
				}
			}
		}
	}
}
