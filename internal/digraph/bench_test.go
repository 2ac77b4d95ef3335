package digraph

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// BenchmarkOrient measures the CSR build on the linear-truncation
// Pareto workload (the skewed case the paper's listing costs are
// dominated by) at small and large n, with a recycled arena so
// steady-state allocation is what the engine and the trid registry
// actually see.
func BenchmarkOrient(b *testing.B) {
	p := degseq.StandardPareto(1.5)
	for _, n := range []int{2000, 50000} {
		g, _, err := gen.ParetoGraph(p, n, degseq.LinearTruncation, stats.NewRNGFromSeed(9))
		if err != nil {
			b.Fatal(err)
		}
		rank, err := order.Rank(g, order.KindDescending, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ar := &Arena{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := Orient(g, rank, WithArena(ar))
				if err != nil {
					b.Fatal(err)
				}
				ar.Put(o)
			}
		})
	}
}
