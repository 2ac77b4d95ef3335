package core_test

import (
	"context"
	"fmt"
	"log"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

// ExampleListCtx is the end-to-end tour: generate a heavy-tailed random
// graph the way the paper does (§7.2), list its triangles with T1 under
// the paper-optimal order, and compare the measured cost with the
// eq. (50) prediction and the n → ∞ limit.
func ExampleListCtx() {
	// A Pareto degree law with tail index α = 1.7 and the paper's
	// β = 30(α-1), truncated at √n so the graph is AMRC.
	pareto := degseq.StandardPareto(1.7)
	const n = 5000
	g, _, err := gen.ParetoGraph(pareto, n, degseq.RootTruncation, stats.NewRNGFromSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())

	// T1 with its optimal descending-degree order (Corollary 1).
	cfg := core.Config{Method: listing.T1, Order: planner.RecommendedOrder(listing.T1)}
	res, err := core.ListCtx(context.Background(), g, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v+%v: %d triangles, %d candidate tuples (%.1f per node)\n",
		cfg.Method, res.Order, res.Triangles, res.ModelOps(), float64(res.ModelOps())/n)

	// The analytical prediction of eq. (50) for this n, and the limit.
	spec := model.Spec{Method: cfg.Method, Order: cfg.Order}
	tr, err := degseq.TruncateFor(pareto, degseq.RootTruncation, n)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := model.DiscreteCost(spec, tr)
	if err != nil {
		log.Fatal(err)
	}
	lim, err := model.Limit(spec, pareto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model (50) predicts %.1f per node; the n→∞ limit is %.1f\n", pred, lim)
	// Output:
	// graph: n=5000 m=37891
	// T1+descending: 4200 triangles, 178102 candidate tuples (35.6 per node)
	// model (50) predicts 34.4 per node; the n→∞ limit is 233.3
}

// ExampleClustering computes clustering coefficients, the classical
// application of triangle listing the paper's introduction motivates,
// on a heavy-tailed graph, an Erdős–Rényi control with the same edge
// budget, and the two network models the introduction cites for why
// real graphs are triangle-rich: preferential attachment [5] and the
// small world [38].
func ExampleClustering() {
	const n = 3000
	rng := stats.NewRNGFromSeed(99)
	social, _, err := gen.ParetoGraph(degseq.StandardPareto(1.6), n, degseq.RootTruncation, rng.Child())
	if err != nil {
		log.Fatal(err)
	}
	control, err := gen.ErdosRenyi(n, social.NumEdges(), rng.Child())
	if err != nil {
		log.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(n, 14, rng.Child())
	if err != nil {
		log.Fatal(err)
	}
	ws, err := gen.WattsStrogatz(n, 14, 0.1, rng.Child())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Pareto α=1.6", social},
		{"Erdős–Rényi", control},
		{"Barabási–Albert", ba},
		{"Watts–Strogatz", ws},
	} {
		tri, global, local, err := core.Clustering(c.g)
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, cc := range local {
			sum += cc
		}
		fmt.Printf("%-16s m=%-6d triangles=%-6d global=%.4f mean local=%.4f\n",
			c.name, c.g.NumEdges(), tri, global, sum/n)
	}
	// Output:
	// Pareto α=1.6     m=19444  triangles=2115   global=0.0141 mean local=0.0128
	// Erdős–Rényi      m=19444  triangles=353    global=0.0042 mean local=0.0042
	// Barabási–Albert  m=41895  triangles=26065  global=0.0342 mean local=0.0362
	// Watts–Strogatz   m=42000  triangles=199830 global=0.5267 mean local=0.5303
}
