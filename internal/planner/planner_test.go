package planner

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

func TestPlannableOrders(t *testing.T) {
	if len(Orders) != 5 {
		t.Fatalf("plannable grid has %d orders, want 5", len(Orders))
	}
	for _, k := range Orders {
		if orderIndex(k) == len(Orders) {
			t.Errorf("order %v in Orders but not plannable", k)
		}
	}
	if got := orderIndex(order.KindDegenerate); got != len(Orders) {
		t.Errorf("orderIndex(degenerate) = %d, want %d: the degenerate order must not be plannable (§7.5: its limit map needs edges)", got, len(Orders))
	}
}

// TestFitTailRecovery feeds the fitter an exactly discretized Pareto and
// checks it recovers the latent parameters. The midpoint correction
// X ≈ D − ½ is approximate, so recovery is near, not exact.
func TestFitTailRecovery(t *testing.T) {
	p := degseq.StandardPareto(3) // α=3, β=60
	top := p.Quantile(1 - 1e-12)
	w := make([]float64, top)
	for d := int64(1); d <= top; d++ {
		w[d-1] = p.PMF(d)
	}
	e, err := degseq.NewEmpirical(w)
	if err != nil {
		t.Fatal(err)
	}
	alpha, beta, relErr, ok := fitTail(e)
	if !ok {
		t.Fatal("fit failed on an exact Pareto histogram")
	}
	if math.Abs(alpha-3) > 0.3 {
		t.Errorf("fitted alpha = %v, want ≈ 3", alpha)
	}
	if math.Abs(beta-60)/60 > 0.1 {
		t.Errorf("fitted beta = %v, want ≈ 60", beta)
	}
	if relErr > 0.02 {
		t.Errorf("fit rel-err = %v, want < 2%%", relErr)
	}

	// A distribution too light for the family (single atom: r = 1) must
	// report no fit rather than garbage.
	atom, err := degseq.NewEmpirical([]float64{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := fitTail(atom); ok {
		t.Error("degenerate single-atom distribution got a Pareto fit")
	}
}

func TestComputeEdgeless(t *testing.T) {
	g, err := graph.FromEdges(5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ranking) != len(listing.Methods)*len(Orders) {
		t.Fatalf("trivial plan has %d cells, want %d", len(p.Ranking), len(listing.Methods)*len(Orders))
	}
	best := p.Best()
	if best.Method != listing.T1 || best.Order != order.KindDescending || best.Total != 0 {
		t.Errorf("edgeless best = %+v, want zero-cost T1+θ_D", best)
	}
	if p.Fit.Isolated != 5 || p.Fit.Edges != 0 {
		t.Errorf("edgeless fit = %+v", p.Fit)
	}
}

func TestPlanAccessors(t *testing.T) {
	g := testkit.ParetoGraph(t, 1.5, 2000, degseq.RootTruncation, 11)
	p, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.BestUnder(order.KindDegenerate); ok {
		t.Error("BestUnder(degenerate) must report un-plannable")
	}
	c, ok := p.BestUnder(order.KindAscending)
	if !ok || c.Order != order.KindAscending {
		t.Fatalf("BestUnder(ascending) = %+v, %v", c, ok)
	}
	// The constrained best can't beat the global best.
	if c.PredictedNs < p.Best().PredictedNs {
		t.Errorf("BestUnder price %v ns below global best %v ns", c.PredictedNs, p.Best().PredictedNs)
	}
	if _, ok := p.Lookup(listing.E3, order.KindCRR); !ok {
		t.Error("Lookup missed a grid cell")
	}
	if _, ok := p.Lookup(listing.E3, order.KindDegenerate); ok {
		t.Error("Lookup invented a degenerate cell")
	}
	// Ranking is sorted by predicted time, and each price is the cell's
	// model ops times its family's per-op cost.
	for i, c := range p.Ranking {
		if c.PredictedNs != c.Total*NsPerOp(c.Method) {
			t.Fatalf("%s priced %v ns, want %v ops × %v ns", c.Spec(), c.PredictedNs, c.Total, NsPerOp(c.Method))
		}
		if i > 0 && c.PredictedNs < p.Ranking[i-1].PredictedNs {
			t.Fatalf("ranking out of order at %d: %v ns after %v ns", i,
				c.PredictedNs, p.Ranking[i-1].PredictedNs)
		}
	}
}

// TestComputeDeterminism: the plan — table text and JSON view alike —
// is byte-identical across repeated runs and any worker count.
func TestComputeDeterminism(t *testing.T) {
	g := testkit.ParetoGraph(t, 1.5, 4000, degseq.RootTruncation, 7)
	var wantText string
	var wantJSON []byte
	for _, workers := range []int{1, 1, 2, 8} {
		p, err := Compute(g, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		text := p.Format()
		js, err := json.Marshal(p.View())
		if err != nil {
			t.Fatal(err)
		}
		if wantText == "" {
			wantText, wantJSON = text, js
			continue
		}
		if text != wantText {
			t.Errorf("workers=%d Format differs:\n%s\nwant:\n%s", workers, text, wantText)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("workers=%d JSON view differs:\n%s\nwant:\n%s", workers, js, wantJSON)
		}
	}
}

// TestComputeDistAgreesWithCompute: pricing the graph's own empirical
// histogram directly through the grid pricer reproduces Compute's
// ranking exactly.
func TestComputeDistAgreesWithCompute(t *testing.T) {
	g := testkit.ParetoGraph(t, 2.5, 3000, degseq.RootTruncation, 3)
	fromGraph, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := degseq.FromHistogram(g.DegreeHistogram())
	if err != nil {
		t.Fatal(err)
	}
	active := int64(fromGraph.Fit.Nodes) - fromGraph.Fit.Isolated
	fromDist, err := priceGrid(emp, active, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromDist) != len(fromGraph.Ranking) {
		t.Fatal("grid sizes differ")
	}
	for i := range fromDist {
		a, b := fromGraph.Ranking[i], fromDist[i]
		if a.Method != b.Method || a.Order != b.Order || a.Total != b.Total || a.PredictedNs != b.PredictedNs {
			t.Fatalf("rank %d differs: graph %+v dist %+v", i, a, b)
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/planner -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden file\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPlans pins the full ranked plan of the two real-graph
// fixtures. Plans are pure functions of the degree histogram, so these
// bytes are machine- and worker-count-independent.
func TestGoldenPlans(t *testing.T) {
	for _, tc := range []struct{ fixture, golden string }{
		{"karate.mtx", "karate.plan.txt"},
		{"florentine.txt", "florentine.plan.txt"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			p, err := Compute(loadFixture(t, tc.fixture), WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, []byte(p.Format()))
		})
	}
}

func loadFixture(t *testing.T, name string) *graph.Graph {
	t.Helper()
	ld, err := ingest.LoadFile(filepath.Join("..", "ingest", "testdata", name), ingest.FormatAuto, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ld.Close() })
	return ld.Graph
}

// rankingGraphs are the workloads the time-priced ranking is checked
// on: Pareto(1.5) at both truncations and two sizes, plus the two
// real-graph fixtures.
func rankingGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"karate":     loadFixture(t, "karate.mtx"),
		"florentine": loadFixture(t, "florentine.txt"),
	}
	for _, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		for _, n := range []int{2000, 10000} {
			gs[fmt.Sprintf("%v/n=%d", trunc, n)] = testkit.ParetoGraph(t, 1.5, n, trunc, uint64(n))
		}
	}
	return gs
}

// TestAutoNeverPicksVertexIterator: a vertex iterator's cheapest cell
// always ties in model ops with a lookup edge iterator's (§2.3), and a
// global hash probe is priced above a stamp probe, so method=auto never
// resolves to T1–T6, with or without an explicit order.
func TestAutoNeverPicksVertexIterator(t *testing.T) {
	for name, g := range rankingGraphs(t) {
		p, err := Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		if b := p.Best(); b.Method.Family() == listing.VertexIterator {
			t.Errorf("%s: method=auto picked %s", name, b.Spec())
		}
		for _, k := range Orders {
			if c, _ := p.BestUnder(k); c.Method.Family() == listing.VertexIterator {
				t.Errorf("%s: method=auto order=%v picked %s", name, k, c.Spec())
			}
		}
	}
}

// TestLookupUndercutsVertex: every vertex-iterator cell has a
// lookup-edge-iterator cell under the same order with the same eq. (50)
// total, and that cell is priced lower in ns.
func TestLookupUndercutsVertex(t *testing.T) {
	for name, g := range rankingGraphs(t) {
		p, err := Compute(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.Ranking {
			if c.Method.Family() != listing.VertexIterator {
				continue
			}
			found := false
			for _, l := range p.Ranking {
				if l.Method.Family() == listing.LookupEdgeIterator && l.Order == c.Order && l.Total == c.Total {
					found = true
					if l.PredictedNs >= c.PredictedNs {
						t.Errorf("%s: %s priced %v ns, not below %s at %v ns", name, l.Spec(), l.PredictedNs, c.Spec(), c.PredictedNs)
					}
					break
				}
			}
			if !found {
				t.Errorf("%s: no lookup cell matches %s's %v ops", name, c.Spec(), c.Total)
			}
		}
	}
}

// TestPickDivergingWN is the paper's §6.3 limit. For Pareto α = 1.45 ∈
// (4/3, 1.5] under root truncation, the best vertex-iterator cost
// converges while E1+θ_D's diverges, so w_n grows with n and the
// scanning edge iterators lose at large n whatever their per-op speed.
// The planner must show it: E1's price over the best non-E price grows
// with n, and the pick at the largest n is not a scanning edge iterator.
func TestPickDivergingWN(t *testing.T) {
	p := degseq.StandardPareto(1.45)
	var prev float64
	var last *Plan
	for i, n := range []int64{1e4, 1e6, 1e8} {
		tr, err := degseq.TruncateFor(p, degseq.RootTruncation, n)
		if err != nil {
			t.Fatal(err)
		}
		ranking, err := priceGrid(tr, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{Ranking: ranking}
		e1, _ := plan.Lookup(listing.E1, order.KindDescending)
		bestNonE := math.Inf(1)
		for _, c := range plan.Ranking {
			if c.Method.Family() != listing.ScanningEdgeIterator {
				bestNonE = math.Min(bestNonE, c.PredictedNs)
			}
		}
		ratio := e1.PredictedNs / bestNonE
		if i > 0 && ratio <= prev {
			t.Fatalf("n=%g: E1 price ratio %v not above %v at the previous n", float64(n), ratio, prev)
		}
		prev, last = ratio, plan
	}
	if b := last.Best(); b.Method.Family() == listing.ScanningEdgeIterator {
		t.Fatalf("n=1e8: pick %s is a scanning edge iterator; §6.3 says it must lose", b.Spec())
	}
}

// Spec renders the candidate in the paper's notation, e.g. "E1+θ_D".
func (c Candidate) Spec() string {
	return fmt.Sprintf("%v+%s", c.Method, c.Order.ShortName())
}
