package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(100, 800, stats.NewRNGFromSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// list runs ListCtx with a background context and no visitor.
func list(t *testing.T, g *graph.Graph, cfg Config) Result {
	t.Helper()
	res, err := ListCtx(context.Background(), g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCountConsistentAcrossConfigs(t *testing.T) {
	g := testGraph(t)
	want := list(t, g, Config{Method: listing.T1, Order: order.KindDescending}).Triangles
	if want == 0 {
		t.Fatal("no triangles in test graph")
	}
	for _, m := range listing.Core {
		for _, k := range order.Kinds {
			if got := list(t, g, Config{Method: m, Order: k, Seed: 9}).Triangles; got != want {
				t.Errorf("%v+%v: %d triangles, want %d", m, k, got, want)
			}
		}
	}
}

func TestListResultMeters(t *testing.T) {
	g := testGraph(t)
	calls := 0
	res, err := ListCtx(context.Background(), g, Config{Method: listing.E1, Order: order.KindDescending},
		func(x, y, z int32) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if int64(calls) != res.Triangles {
		t.Fatalf("visitor called %d times, %d triangles", calls, res.Triangles)
	}
	if res.ModelOps() <= 0 || res.MaxOutDeg <= 0 {
		t.Fatal("meters not populated")
	}
	if res.Order != order.KindDescending {
		t.Fatal("order not recorded")
	}
}

func TestRecommendedOrders(t *testing.T) {
	// The paper's optimality results.
	rec := planner.RecommendedOrder
	if rec(listing.T1) != order.KindDescending ||
		rec(listing.E1) != order.KindDescending ||
		rec(listing.T2) != order.KindRoundRobin ||
		rec(listing.E4) != order.KindCRR ||
		rec(listing.T3) != order.KindAscending {
		t.Fatal("recommended orders disagree with Corollaries 1-2")
	}
	// The recommended order must actually be no worse than the other named
	// degree-based orders on a heavy-tailed instance.
	p := degseq.StandardPareto(1.7)
	g, _, err := gen.ParetoGraph(p, 5000, degseq.RootTruncation, stats.NewRNGFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range listing.Core {
		best := list(t, g, Config{Method: m, Order: rec(m)})
		for _, k := range []order.Kind{order.KindAscending, order.KindDescending,
			order.KindRoundRobin, order.KindCRR} {
			res := list(t, g, Config{Method: m, Order: k})
			if float64(res.ModelOps()) < 0.95*float64(best.ModelOps()) {
				t.Errorf("%v: order %v ops %d beat recommended %v ops %d by >5%%",
					m, k, res.ModelOps(), rec(m), best.ModelOps())
			}
		}
	}
}

func TestPredictCostTracksMeasured(t *testing.T) {
	// The eq. (50) prediction should land within a few percent of the
	// measured per-node cost on an AMRC instance (the Table 6 story).
	p := degseq.StandardPareto(1.5)
	n := 20000
	tr, err := degseq.TruncateFor(p, degseq.RootTruncation, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNGFromSeed(12)
	var sim stats.Sample
	for i := 0; i < 5; i++ {
		g, _, err := gen.ParetoGraph(p, n, degseq.RootTruncation, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		res := list(t, g, Config{Method: listing.T1, Order: order.KindDescending})
		sim.Add(float64(res.ModelOps()) / float64(n))
	}
	pred, err := model.DiscreteCost(model.Spec{Method: listing.T1, Order: order.KindDescending}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.Mean()-pred)/pred > 0.10 {
		t.Fatalf("sim %v vs predicted %v", sim.Mean(), pred)
	}
}

func TestGlobalClusteringKnownGraphs(t *testing.T) {
	// K4: every wedge closes; coefficient 1.
	var edges []graph.Edge
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	k4, _ := graph.FromEdges(4, edges, false)
	if tri, cc, _, err := Clustering(k4); err != nil || tri != 4 || math.Abs(cc-1) > 1e-12 {
		t.Fatalf("K4: %d triangles, clustering = %v (%v), want 4 and 1", tri, cc, err)
	}
	// Star: no triangles.
	star, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}, false)
	if tri, cc, _, err := Clustering(star); err != nil || tri != 0 || cc != 0 {
		t.Fatalf("star: %d triangles, clustering = %v (%v), want 0", tri, cc, err)
	}
	// Edgeless graph: zero wedges handled.
	empty, _ := graph.FromEdges(3, nil, false)
	if _, cc, _, err := Clustering(empty); err != nil || cc != 0 {
		t.Fatalf("empty clustering = %v (%v)", cc, err)
	}
}

func TestLocalClustering(t *testing.T) {
	// Triangle with a pendant at node 2: nodes 0,1 have cc=1; node 2 has
	// 1 triangle of C(3,2)=3 wedges; node 3 has degree 1 → 0.
	g, _ := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
	}, false)
	_, _, cc, err := Clustering(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1.0 / 3, 0}
	for i := range want {
		if math.Abs(cc[i]-want[i]) > 1e-12 {
			t.Fatalf("cc = %v, want %v", cc, want)
		}
	}
}

func TestWorkersMatchSerial(t *testing.T) {
	g := testGraph(t)
	serial := list(t, g, Config{Method: listing.E1, Order: order.KindDescending})
	par := list(t, g, Config{Method: listing.E1, Order: order.KindDescending, Workers: 4})
	if par.Stats != serial.Stats {
		t.Fatalf("parallel stats %+v != serial %+v", par.Stats, serial.Stats)
	}
}

func TestUniformOrderDeterministicBySeed(t *testing.T) {
	g := testGraph(t)
	r1 := list(t, g, Config{Method: listing.T2, Order: order.KindUniform, Seed: 42})
	r2 := list(t, g, Config{Method: listing.T2, Order: order.KindUniform, Seed: 42})
	if r1.ModelOps() != r2.ModelOps() {
		t.Fatal("uniform order not deterministic by seed")
	}
}

// TestPartitionValidation: a partitioned config must name E2 and at
// least one part; both entry points reject anything else before
// sweeping, and the E2 config they accept lists every triangle.
func TestPartitionValidation(t *testing.T) {
	g := testGraph(t)
	want := list(t, g, Config{Order: order.KindDescending}).Triangles
	o, err := Prepare(g, Config{Order: order.KindDescending})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  Config
		want string // error substring; "" = accepted
	}{
		{Config{Method: listing.E2, Partition: &Partition{Parts: 3}}, ""},
		{Config{Method: listing.E1, Partition: &Partition{Parts: 3}}, "method E1"},
		{Config{Partition: &Partition{Parts: 3}}, "method T1"},
		{Config{Method: listing.E2, Partition: &Partition{}}, "at least 1 part"},
		{Config{Method: listing.E2, Partition: &Partition{Parts: -2}}, "at least 1 part"},
	} {
		visits := 0
		visit := func(x, y, z int32) { visits++ }
		r1, err1 := ListCtx(context.Background(), g, c.cfg, visit)
		r2, err2 := ListOriented(context.Background(), o, c.cfg, visit)
		for _, err := range []error{err1, err2} {
			if c.want == "" && err != nil {
				t.Fatalf("%+v: %v", *c.cfg.Partition, err)
			}
			if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Fatalf("method %v parts %d: err = %v, want %q", c.cfg.Method, c.cfg.Partition.Parts, err, c.want)
			}
		}
		if c.want != "" && visits != 0 {
			t.Fatalf("method %v parts %d: rejected config still listed %d triangles",
				c.cfg.Method, c.cfg.Partition.Parts, visits)
		}
		if c.want == "" && (r1.Triangles != want || r2.Triangles != want || r1.Partitioned == nil) {
			t.Fatalf("partitioned run: %d/%d triangles, want %d", r1.Triangles, r2.Triangles, want)
		}
	}
}
