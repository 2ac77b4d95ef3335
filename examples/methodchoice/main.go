// Methodchoice: the paper's §2.4 runtime decision and §6.3 asymptotic
// separation as the planner makes it, plus the streaming fallback when
// even one pass over the edges must be sublinear in memory.
//
// For a given degree law, should you run an iterator that probes a set
// (T1+θ_D or its lookup twin L2+θ_D: few operations, each a probe) or
// the best scanning edge iterator (E1+θ_D: w_n times more operations,
// each several times cheaper)? The planner prices every pair in
// nanoseconds with checked-in per-operation costs and picks the lowest.
// For Pareto α ∈ (4/3, 1.5], w_n → ∞, so at large n the scanning
// iterators lose on any machine.
package main

import (
	"fmt"
	"log"
	"runtime"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/stats"
	"trilist/internal/streaming"
)

func main() {
	fmt.Printf("%8s %12s | %8s | %-16s %14s\n", "alpha", "n", "w_n", "planner pick", "predicted ns")
	for _, alpha := range []float64{1.45, 1.7, 2.5} {
		p := degseq.StandardPareto(alpha)
		for _, n := range []int64{1e4, 1e6, 1e8} {
			tr, err := degseq.TruncateFor(p, degseq.RootTruncation, n)
			if err != nil {
				log.Fatal(err)
			}
			plan, err := planner.ComputeDist(tr, n, planner.WithWorkers(runtime.GOMAXPROCS(0)))
			if err != nil {
				log.Fatal(err)
			}
			t1, _ := plan.Lookup(listing.T1, order.KindDescending)
			e1, _ := plan.Lookup(listing.E1, order.KindDescending)
			best := plan.Best()
			fmt.Printf("%8.2f %12.0g | %8.1f | %-16s %14.4g\n",
				alpha, float64(n), e1.Total/t1.Total, best.Spec(), best.PredictedNs)
		}
	}
	fmt.Println("\nα=1.45 ∈ (4/3, 1.5]: w_n grows with n, so the scanning edge iterators")
	fmt.Println("lose at large n whatever their per-op speed (§6.3).")

	// Streaming fallback: estimate the triangle count of a graph using
	// a 10% edge reservoir.
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.7), 30000,
		degseq.RootTruncation, stats.NewRNGFromSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	exact, err := core.Count(g, core.Config{Method: listing.E1})
	if err != nil {
		log.Fatal(err)
	}
	est, err := streaming.CountGraph(g, int(g.NumEdges()/10), stats.NewRNGFromSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreaming (10%% reservoir): estimate %.0f vs exact %d (%.1f%% off)\n",
		est, exact, 100*(est-float64(exact))/float64(exact))
}
