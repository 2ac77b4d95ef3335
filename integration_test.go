// Integration tests: every triangle-listing implementation in the
// repository — the 18 oriented methods, the 5 historical baselines, a
// parallel sweep, and the external-memory partitioned lister — must
// produce the same count on the same graph, across random graphs of
// every family this repo can generate and every orientation.
package trilist_test

import (
	"context"
	"testing"
	"testing/quick"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/extmem"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

// generateAnyGraph produces a graph from one of the repo's families,
// keyed by selector.
func generateAnyGraph(t testing.TB, selector uint8, seed uint64) *graph.Graph {
	t.Helper()
	rng := stats.NewRNGFromSeed(seed)
	var g *graph.Graph
	var err error
	switch selector % 6 {
	case 0:
		g, err = gen.ErdosRenyi(80, 500, rng)
	case 1:
		g, _, err = gen.ParetoGraph(degseq.StandardPareto(1.6), 300, degseq.RootTruncation, rng)
	case 2:
		p := degseq.StandardPareto(2.2)
		tr, terr := degseq.TruncateFor(p, degseq.LinearTruncation, 200)
		if terr != nil {
			t.Fatal(terr)
		}
		d := degseq.Sample(tr, 200, rng)
		d.MakeEven()
		g, _, err = gen.ConfigurationModel(d, rng)
	case 3:
		p := degseq.StandardPareto(1.8)
		tr, terr := degseq.TruncateFor(p, degseq.RootTruncation, 250)
		if terr != nil {
			t.Fatal(terr)
		}
		d := degseq.Sample(tr, 250, rng)
		g, _, err = gen.ChungLu(d, rng)
	case 4:
		g, err = gen.BarabasiAlbert(150, 4, rng)
	default:
		g, err = gen.WattsStrogatz(120, 4, 0.3, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAllImplementationsAgree(t *testing.T) {
	f := func(selector uint8, seed uint64, orderSel uint8) bool {
		g := generateAnyGraph(t, selector, seed)
		kind := order.Kinds[int(orderSel)%len(order.Kinds)]
		rng := stats.NewRNGFromSeed(seed + 1)
		var orng *stats.RNG
		if kind == order.KindUniform {
			orng = rng
		}
		rank, err := order.Rank(g, kind, orng)
		if err != nil {
			return false
		}
		o, err := digraph.Orient(g, rank)
		if err != nil {
			return false
		}
		want := testkit.BruteForce(g, nil).Triangles
		// 18 oriented methods.
		for _, m := range listing.Methods {
			if listing.Run(o, m, nil).Triangles != want {
				t.Logf("method %v disagrees on selector %d", m, selector)
				return false
			}
		}
		// Parallel sweep.
		if listing.Run(o, listing.E1, nil, listing.WithWorkers(3)).Triangles != want {
			return false
		}
		// External memory, P = 3.
		store := extmem.NewMemStore()
		res, err := extmem.Run(context.Background(), o, 3, store, nil)
		store.Close()
		if err != nil || res.Triangles != want {
			return false
		}
		// Baselines.
		if testkit.ClassicNodeIterator(g, nil).Triangles != want ||
			testkit.ClassicEdgeIterator(g, nil).Triangles != want ||
			testkit.ChibaNishizeki(g, nil).Triangles != want ||
			testkit.Forward(g, nil).Triangles != want ||
			listing.CompactForward(g, nil).Triangles != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
