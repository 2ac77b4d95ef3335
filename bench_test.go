// Top-level benchmark harness: one testing.B benchmark per table in the
// paper's evaluation section (Tables 3, 5–12), plus microbenchmarks of
// the primitives (listing methods, generators, orientations). Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableN regenerates its table at a scaled-down protocol;
// cmd/experiments prints the full tables (and -scale paper matches the
// paper's sizes).
package trilist_test

import (
	"fmt"
	"testing"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/experiments"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

// benchConfig is the scaled-down protocol used by the per-table benches.
func benchConfig() experiments.Config {
	return experiments.Config{
		Sizes:      []int{2000, 8000},
		Seqs:       2,
		Graphs:     2,
		Seed:       1,
		SurrogateN: 20000,
	}
}

// --- Table 3: hash probe vs. merge comparison throughput ---

func BenchmarkTable3HashProbe(b *testing.B) {
	g := testkit.ParetoGraph(b, 1.7, 20000, degseq.RootTruncation, 77)
	o := orient(b, g, order.KindDescending)
	arcs := o.ArcSet()
	probes := collectArcs(o)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		if arcs.Contains(p[0], p[1]) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkTable3MergeScan(b *testing.B) {
	// Comparisons/sec across full E1 runs (the SEI primitive in context).
	g := testkit.ParetoGraph(b, 1.7, 20000, degseq.RootTruncation, 77)
	o := orient(b, g, order.KindDescending)
	b.ResetTimer()
	var comps int64
	for i := 0; i < b.N; i++ {
		s := listing.Run(o, listing.E1, nil)
		comps += s.Comparisons
	}
	b.ReportMetric(float64(comps)/float64(b.N), "comparisons/run")
}

// --- Table 5: model computation ---

func BenchmarkTable5DiscreteExact(b *testing.B) {
	spec := model.Spec{Method: listing.T1, Order: order.KindDescending}
	p := degseq.StandardPareto(1.5)
	tr, err := degseq.NewTruncated(p, 1e6-1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.DiscreteCost(spec, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Algorithm2(b *testing.B) {
	spec := model.Spec{Method: listing.T1, Order: order.KindDescending}
	p := degseq.StandardPareto(1.5)
	cdf := model.ParetoTruncatedCDF(p, 1e14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.QuickCost(spec, cdf, 1e14, 1e-5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Continuous(b *testing.B) {
	spec := model.Spec{Method: listing.T1, Order: order.KindDescending}
	p := degseq.StandardPareto(1.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ContinuousCost(spec, p, 1e14, 200000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 6-10: simulation vs. model protocols ---

func benchPairTable(b *testing.B, run func(experiments.Config) (*experiments.PairTable, error)) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		tab, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6(b *testing.B) { benchPairTable(b, experiments.Table6) }

// BenchmarkTable6Parallel measures the Monte-Carlo engine's scaling on
// DefaultConfig-sized inputs (n up to 10⁵, 16 trials per size). The
// engine's determinism contract means every worker count produces the
// same bytes, so this is purely a wall-clock comparison; on a ≥4-core
// machine workers=4 runs ≥2× faster than workers=1 (see EXPERIMENTS.md
// for measured numbers).
func BenchmarkTable6Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.DefaultConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				tab, err := experiments.Table6(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tab.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}
func BenchmarkTable7(b *testing.B)  { benchPairTable(b, experiments.Table7) }
func BenchmarkTable8(b *testing.B)  { benchPairTable(b, experiments.Table8) }
func BenchmarkTable9(b *testing.B)  { benchPairTable(b, experiments.Table9) }
func BenchmarkTable10(b *testing.B) { benchPairTable(b, experiments.Table10) }

// --- Table 11: weight ablation ---

func BenchmarkTable11(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.Table11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 12: surrogate cost matrix ---

func BenchmarkTable12(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := experiments.Table12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if problems := res.CheckPaperClaims(); len(problems) > 0 {
			b.Fatalf("paper claims violated: %v", problems)
		}
	}
}

// --- Microbenchmarks: listing methods ---

func orient(b *testing.B, g *graph.Graph, k order.Kind) *digraph.Oriented {
	b.Helper()
	rank, err := order.Rank(g, k, stats.NewRNGFromSeed(3))
	if err != nil {
		b.Fatal(err)
	}
	o, err := digraph.Orient(g, rank)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

func collectArcs(o *digraph.Oriented) [][2]int32 {
	var arcs [][2]int32
	for v := int32(0); int(v) < o.NumNodes(); v++ {
		for _, w := range o.Out(v) {
			arcs = append(arcs, [2]int32{v, w})
		}
	}
	return arcs
}

func BenchmarkListingMethods(b *testing.B) {
	g := testkit.ParetoGraph(b, 1.7, 30000, degseq.RootTruncation, 77)
	for _, m := range []listing.Method{
		listing.T1, listing.T2, listing.E1, listing.E4, listing.L1,
	} {
		var kinds []order.Kind
		switch m {
		case listing.T2:
			kinds = []order.Kind{order.KindRoundRobin, order.KindDescending}
		case listing.E4:
			kinds = []order.Kind{order.KindCRR, order.KindDescending}
		default:
			kinds = []order.Kind{order.KindDescending}
		}
		for _, k := range kinds {
			o := orient(b, g, k)
			b.Run(fmt.Sprintf("%v+%s", m, k.ShortName()), func(b *testing.B) {
				var tri int64
				for i := 0; i < b.N; i++ {
					tri = listing.Run(o, m, nil).Triangles
				}
				b.ReportMetric(float64(tri), "triangles")
			})
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	g := testkit.ParetoGraph(b, 1.7, 8000, degseq.RootTruncation, 77)
	baselines := []struct {
		name string
		run  func(*graph.Graph, func(x, y, z int32)) testkit.BaselineStats
	}{
		{"ClassicNodeIterator", testkit.ClassicNodeIterator},
		{"ClassicEdgeIterator", testkit.ClassicEdgeIterator},
		{"ChibaNishizeki", testkit.ChibaNishizeki},
		{"Forward", testkit.Forward},
		{"CompactForward", func(g *graph.Graph, visit func(x, y, z int32)) testkit.BaselineStats {
			return testkit.BaselineStats(listing.CompactForward(g, visit))
		}},
	}
	for _, base := range baselines {
		b.Run(base.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base.run(g, nil)
			}
		})
	}
}

// --- Microbenchmarks: generators, orientation, preprocessing ---

func BenchmarkGenerators(b *testing.B) {
	p := degseq.StandardPareto(1.7)
	n := 20000
	tr, err := degseq.TruncateFor(p, degseq.RootTruncation, int64(n))
	if err != nil {
		b.Fatal(err)
	}
	d := degseq.Sample(tr, n, stats.NewRNGFromSeed(5))
	d.MakeEven()
	gens := []struct {
		name string
		run  func(degseq.Sequence, *stats.RNG) (*graph.Graph, gen.Report, error)
	}{
		{"ResidualDegree", gen.ResidualDegree},
		{"ConfigurationModel", gen.ConfigurationModel},
		{"ChungLu", gen.ChungLu},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			rng := stats.NewRNGFromSeed(9)
			for i := 0; i < b.N; i++ {
				if _, _, err := g.run(d, rng.Child()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOrientations(b *testing.B) {
	g := testkit.ParetoGraph(b, 1.7, 30000, degseq.RootTruncation, 77)
	for _, k := range order.Kinds {
		b.Run(k.String(), func(b *testing.B) {
			rng := stats.NewRNGFromSeed(2)
			for i := 0; i < b.N; i++ {
				rank, err := order.Rank(g, k, rng)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := digraph.Orient(g, rank); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Guard that bench configs stay runnable as tests too.
func TestBenchProtocolSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := benchConfig()
	tab, err := experiments.Table6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(cfg.Sizes) {
		t.Fatalf("rows %d != sizes %d", len(tab.Rows), len(cfg.Sizes))
	}
	res, err := experiments.Table3(1<<12, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio <= 0 {
		t.Fatal("bad ratio")
	}
}
