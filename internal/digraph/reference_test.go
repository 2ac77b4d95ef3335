package digraph

import (
	"fmt"
	"slices"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// sortReference builds the orientation the way the counting-sort build
// did: scatter each node's rank-mapped neighbor list into its label's
// slot range, sort every list, and binary-search the split. It trusts
// rank to be a bijection.
func sortReference(g *graph.Graph, rank []int32) *Oriented {
	n := g.NumNodes()
	o := &Oriented{
		offsets: make([]int64, n+1),
		nbrs:    make([]int32, 2*g.NumEdges()),
		split:   make([]int64, n),
		rank:    slices.Clone(rank),
	}
	for v := 0; v < n; v++ {
		o.offsets[rank[v]+1] = int64(g.Degree(int32(v)))
	}
	for l := 0; l < n; l++ {
		o.offsets[l+1] += o.offsets[l]
	}
	for v := 0; v < n; v++ {
		base := o.offsets[rank[v]]
		for i, u := range g.Neighbors(int32(v)) {
			o.nbrs[base+int64(i)] = rank[u]
		}
	}
	for l := 0; l < n; l++ {
		adj := o.nbrs[o.offsets[l]:o.offsets[l+1]]
		slices.Sort(adj)
		k, _ := slices.BinarySearch(adj, int32(l))
		o.split[l] = o.offsets[l] + int64(k)
	}
	return o
}

// referenceGraphs are the differential test's inputs: the three
// workload families at n = 5000 plus the degenerate shapes — a star
// (one list holding every arc), isolated nodes (empty lists between
// full ones) and the empty graph.
func referenceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	er, err := gen.ErdosRenyi(5000, 25000, stats.NewRNGFromSeed(51))
	if err != nil {
		t.Fatal(err)
	}
	out["er"] = er
	p := degseq.StandardPareto(1.5)
	for _, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		g, _, err := gen.ParetoGraph(p, 5000, trunc, stats.NewRNGFromSeed(52))
		if err != nil {
			t.Fatal(err)
		}
		out["pareto-"+trunc.String()] = g
	}
	var star []graph.Edge
	for v := int32(1); v < 200; v++ {
		star = append(star, graph.Edge{U: 0, V: v})
	}
	isolated := []graph.Edge{{U: 1, V: 3}, {U: 3, V: 7}, {U: 1, V: 7}, {U: 7, V: 8}}
	for name, tc := range map[string]struct {
		n     int
		edges []graph.Edge
	}{"star": {200, star}, "isolated": {10, isolated}, "empty": {0, nil}} {
		g, err := graph.FromEdges(tc.n, tc.edges, false)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// poisonedArena returns an arena holding buffers of o's sizes, every
// slot overwritten with garbage, so a build into it must write every
// slot it later reads.
func poisonedArena(t *testing.T, g *graph.Graph, rank []int32) *Arena {
	t.Helper()
	ar := &Arena{}
	o, err := Orient(g, rank, WithArena(ar))
	if err != nil {
		t.Fatal(err)
	}
	for i := range o.offsets {
		o.offsets[i] = -7
	}
	for i := range o.nbrs {
		o.nbrs[i] = -7
	}
	for i := range o.split {
		o.split[i] = -7
	}
	for i := range o.rank {
		o.rank[i] = -7
	}
	ar.Put(o)
	return ar
}

// TestOrientMatchesSortReference: the sort-free scatter builds exactly
// the orientation of the sort-based reference, for every order kind and
// every reference graph, both into fresh buffers and into a poisoned
// arena; bad ranks get the same error text on every graph.
func TestOrientMatchesSortReference(t *testing.T) {
	for name, g := range referenceGraphs(t) {
		for _, kind := range order.Kinds {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				var rng *stats.RNG
				if kind == order.KindUniform {
					rng = stats.NewRNGFromSeed(3)
				}
				rank, err := order.Rank(g, kind, rng)
				if err != nil {
					t.Fatal(err)
				}
				want := sortReference(g, rank)
				fresh, err := Orient(g, rank)
				if err != nil {
					t.Fatal(err)
				}
				if !equal(fresh, want) {
					t.Fatal("fresh build differs from the sort reference")
				}
				if err := validate(fresh); err != nil {
					t.Fatal(err)
				}
				reused, err := OrientOwned(g, slices.Clone(rank), WithArena(poisonedArena(t, g, rank)))
				if err != nil {
					t.Fatal(err)
				}
				if !equal(reused, want) {
					t.Fatal("build into a poisoned arena differs from the sort reference")
				}
			})
		}
		n := g.NumNodes()
		if n < 2 {
			continue
		}
		oob := identityRank(n)
		oob[n/2] = int32(n)
		if _, err := Orient(g, oob); err == nil || err.Error() != fmt.Sprintf("digraph: rank[%d] = %d out of range", n/2, n) {
			t.Errorf("%s: out-of-range error = %v", name, err)
		}
		dup := identityRank(n)
		dup[n-1] = dup[1]
		if _, err := Orient(g, dup); err == nil || err.Error() != "digraph: label 1 assigned twice" {
			t.Errorf("%s: duplicate error = %v", name, err)
		}
	}
}
