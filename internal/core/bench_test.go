package core

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// BenchmarkPrepare measures the full rank+orient front of the pipeline
// (what every experiments trial and every trid cache miss pays) on the
// linear-truncation Pareto workload, small and large n.
func BenchmarkPrepare(b *testing.B) {
	p := degseq.StandardPareto(1.5)
	for _, n := range []int{2000, 50000} {
		g, _, err := gen.ParetoGraph(p, n, degseq.LinearTruncation, stats.NewRNGFromSeed(9))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := Config{Method: listing.E1, Order: order.KindDescending}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
