// These tests live in an external package because they measure plans
// against executed preparation via internal/core, which itself imports
// the planner.
package planner_test

import (
	"math"
	"testing"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

// choiceTolerance bounds how much worse the planner's pick may be than
// the measured-cheapest grid cell, both priced as measured model ops ×
// planner.NsPerOp (the same per-family constants the ranking uses). The plan
// prices eq. (50) on the empirical degree histogram while the
// measurement sees one concrete edge realization, so small deviations
// are expected; 10% is far above what the validation bench observes
// (≈1.00 overhead at n ≥ 5000) while still failing on any real
// model-wiring mistake, which mispredicts by integer factors.
const choiceTolerance = 1.10

// TestPlannerChoiceNearOptimal is the property behind the whole
// subsystem: on synthetic Pareto graphs across the paper's α regimes,
// the planner's top choice, priced from its measured model ops, costs
// within choiceTolerance of the measured-cheapest (method, order) pair.
func TestPlannerChoiceNearOptimal(t *testing.T) {
	for _, alpha := range []float64{1.5, 2.5, 3.5} {
		g, _, err := gen.ParetoGraph(degseq.StandardPareto(alpha), 4000,
			degseq.RootTruncation, stats.NewRNGFromSeed(uint64(10*alpha)))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planner.Compute(g, planner.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		best := plan.Best()
		measured := make(map[string]float64)
		cheapest := math.Inf(1)
		for _, kind := range planner.Orders {
			o, err := core.Prepare(g, core.Config{Order: kind, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range listing.Methods {
				c := listing.ModelCost(o, m) * planner.NsPerOp(m)
				measured[m.String()+"/"+kind.String()] = c
				if c < cheapest {
					cheapest = c
				}
			}
		}
		chosen := measured[best.Method.String()+"/"+best.Order.String()]
		if chosen > choiceTolerance*cheapest {
			t.Errorf("α=%g: planner chose %s costing %.0f measured ns, cheapest cell costs %.0f (ratio %.3f > %.2f)",
				alpha, best.Spec(), chosen, cheapest, chosen/cheapest, choiceTolerance)
		}
		// The prediction itself must be in the right ballpark for the
		// chosen cell, not just rank-correct.
		if ratio := best.PredictedNs / chosen; ratio < 0.5 || ratio > 2 {
			t.Errorf("α=%g: predicted %g vs measured %g for %s (ratio %.3f)",
				alpha, best.Total, chosen, best.Spec(), ratio)
		}
	}
}
