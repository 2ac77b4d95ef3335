// Ablation benchmarks for the repository's design choices (see
// DESIGN.md): the custom open-addressing hash sets vs. Go maps, the
// Fenwick-tree weighted sampler vs. linear-scan sampling inside the
// graph generator, merge-scan vs. hash-lookup intersection at the
// algorithm level (the SEI/LEI split the paper's Table 3 quantifies),
// and the cost-from-degrees shortcut vs. a full instrumented run.
package trilist_test

import (
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/fenwick"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/hashset"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func genParetoForBench(p degseq.Pareto, n int) (*graph.Graph, gen.Report, error) {
	return gen.ParetoGraph(p, n, degseq.RootTruncation, stats.NewRNGFromSeed(11))
}

func orientForBench(g *graph.Graph, rank []int32) (*digraph.Oriented, error) {
	return digraph.Orient(g, rank)
}

// --- EdgeSet vs map[uint64]struct{} ---

func BenchmarkAblationEdgeSet(b *testing.B) {
	const m = 1 << 16
	rng := stats.NewRNGFromSeed(1)
	keys := make([][2]int32, m)
	for i := range keys {
		keys[i] = [2]int32{int32(rng.IntN(1 << 20)), int32(rng.IntN(1 << 20))}
	}
	b.Run("custom/insert+probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := hashset.New(m)
			for _, k := range keys {
				if k[0] != 0 || k[1] != 0 {
					s.Add(k[0], k[1])
				}
			}
			hits := 0
			for _, k := range keys {
				if s.Contains(k[1], k[0]) {
					hits++
				}
			}
			_ = hits
		}
	})
	b.Run("stdmap/insert+probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := make(map[uint64]struct{}, m)
			for _, k := range keys {
				s[uint64(uint32(k[0]))<<32|uint64(uint32(k[1]))] = struct{}{}
			}
			hits := 0
			for _, k := range keys {
				if _, ok := s[uint64(uint32(k[1]))<<32|uint64(uint32(k[0]))]; ok {
					hits++
				}
			}
			_ = hits
		}
	})
}

// --- Fenwick sampling vs linear scan (generator inner loop) ---

func BenchmarkAblationWeightedSampling(b *testing.B) {
	const n = 1 << 15
	rng := stats.NewRNGFromSeed(2)
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(rng.IntN(50) + 1)
	}
	b.Run("fenwick", func(b *testing.B) {
		tr := fenwick.New(n)
		for i, x := range w {
			tr.Add(i, x)
		}
		src := stats.NewRNGFromSeed(3)
		for i := 0; i < b.N; i++ {
			j := tr.FindByPrefix(src.OpenFloat64() * tr.Total())
			// Simulate the generator's decrement-and-continue pattern.
			tr.Add(j, -1)
			tr.Add(j, 1)
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		var total float64
		for _, x := range w {
			total += x
		}
		src := stats.NewRNGFromSeed(3)
		for i := 0; i < b.N; i++ {
			r := src.OpenFloat64() * total
			for j := 0; j < n; j++ {
				r -= w[j]
				if r <= 0 {
					break
				}
			}
		}
	})
}

// --- Scan vs lookup intersection at the method level (E1 vs L1) ---

func BenchmarkAblationScanVsLookup(b *testing.B) {
	p := degseq.StandardPareto(1.7)
	g, _, err := genParetoForBench(p, 30000)
	if err != nil {
		b.Fatal(err)
	}
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		b.Fatal(err)
	}
	o, err := orientForBench(g, rank)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("E1-merge-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listing.Run(o, listing.E1, nil)
		}
	})
	b.Run("L1-stamp-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listing.Run(o, listing.L1, nil)
		}
	})
	b.Run("T1-hash-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			listing.Run(o, listing.T1, nil)
		}
	})
}

// --- Cost-from-degrees vs instrumented run (the Table 12 shortcut) ---

func BenchmarkAblationCostEvaluation(b *testing.B) {
	p := degseq.StandardPareto(1.5)
	g, _, err := genParetoForBench(p, 50000)
	if err != nil {
		b.Fatal(err)
	}
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		b.Fatal(err)
	}
	o, err := orientForBench(g, rank)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("degree-sums", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = listing.ModelCost(o, listing.E1)
		}
	})
	b.Run("instrumented-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = listing.Run(o, listing.E1, nil).ModelOps()
		}
	})
}
