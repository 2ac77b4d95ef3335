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

// parallelTestGraphs builds the three workload families of the worker
// invariance contract: Erdős–Rényi plus root- and linear-truncated
// Pareto graphs (the skewed cases).
func parallelTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	er, err := gen.ErdosRenyi(600, 3000, stats.NewRNGFromSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	out["er"] = er
	p := degseq.StandardPareto(1.5)
	for _, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		g, _, err := gen.ParetoGraph(p, 600, trunc, stats.NewRNGFromSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		out["pareto-"+trunc.String()] = g
	}
	return out
}

// TestOrientWorkerInvariance: for every order kind and workload,
// WithWorkers never changes the oriented CSR — including when the build
// runs into a dirty recycled arena.
func TestOrientWorkerInvariance(t *testing.T) {
	for name, g := range parallelTestGraphs(t) {
		for _, kind := range order.Kinds {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				var rng *stats.RNG
				if kind == order.KindUniform {
					rng = stats.NewRNGFromSeed(7)
				}
				rank, err := order.Rank(g, kind, rng)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := Orient(g, rank)
				if err != nil {
					t.Fatal(err)
				}
				if err := validate(serial); err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 2, 8} {
					par, err := Orient(g, rank, WithWorkers(w))
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if !equal(par, serial) {
						t.Fatalf("workers=%d: orientation differs from serial build", w)
					}
					// Same property through a deliberately dirty arena.
					reused, err := Orient(g, rank, WithWorkers(w), WithArena(poisonedArena(t, g, rank)))
					if err != nil {
						t.Fatalf("workers=%d arena: %v", w, err)
					}
					if !equal(reused, serial) {
						t.Fatalf("workers=%d: arena-recycled orientation differs from serial build", w)
					}
				}
			})
		}
	}
}

// TestOrientOwnedMatchesOrient: ownership transfer changes neither the
// result nor the caller-visible rank (the orientation aliases it).
func TestOrientOwnedMatchesOrient(t *testing.T) {
	g := parallelTestGraphs(t)["pareto-linear"]
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	ownedRank := slices.Clone(rank)
	owned, err := OrientOwned(g, ownedRank, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equal(owned, copied) {
		t.Fatal("OrientOwned result differs from Orient")
	}
	if &owned.rank[0] != &ownedRank[0] {
		t.Fatal("OrientOwned did not take ownership of the rank slice")
	}
	if &copied.rank[0] == &rank[0] {
		t.Fatal("Orient aliased the caller's rank instead of copying")
	}
}

// TestOrientArenaReuse: a Put arena feeds its buffers to the next build
// of equal size, so the steady state allocates no new CSR arrays.
func TestOrientArenaReuse(t *testing.T) {
	g := parallelTestGraphs(t)["er"]
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	ar := &Arena{}
	first, err := Orient(g, rank, WithArena(ar))
	if err != nil {
		t.Fatal(err)
	}
	p0 := &first.nbrs[0]
	ar.Put(first)
	if first.NumNodes() != 0 {
		t.Fatal("Put left the orientation usable")
	}
	second, err := Orient(g, rank, WithArena(ar))
	if err != nil {
		t.Fatal(err)
	}
	if &second.nbrs[0] != p0 {
		t.Fatal("second build did not reuse the recycled neighbor buffer")
	}
	if err := validate(second); err != nil {
		t.Fatal(err)
	}
}

// TestOrientParallelRejectsBadRank: bad ranks get the same error text
// at every WithWorkers value.
func TestOrientParallelRejectsBadRank(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 900, stats.NewRNGFromSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		short := identityRank(299)
		if _, err := Orient(g, short, WithWorkers(w)); err == nil {
			t.Fatalf("workers=%d: short rank accepted", w)
		}
		oob := identityRank(300)
		oob[17] = 300
		_, err := Orient(g, oob, WithWorkers(w))
		if err == nil || err.Error() != "digraph: rank[17] = 300 out of range" {
			t.Fatalf("workers=%d: out-of-range error = %v", w, err)
		}
		dup := identityRank(300)
		dup[250] = dup[3]
		_, err = Orient(g, dup, WithWorkers(w))
		if err == nil || err.Error() != "digraph: label 3 assigned twice" {
			t.Fatalf("workers=%d: duplicate error = %v", w, err)
		}
	}
}
