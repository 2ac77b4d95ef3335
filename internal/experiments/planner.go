package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

// This file implements -table planner: the predicted-vs-measured
// validation of the query planner. For each workload (a root- and a
// linear-truncated Pareto graph), the planner prices the full
// (method, order) grid from the fitted degree distribution, and every
// cell is then measured exactly — listing.ModelCost evaluates the
// realized orientation's degree sums, the same quantity an executed
// sweep's Stats.ModelOps reports — so each row carries eq. (50)'s
// prediction next to its ground truth. The summary answers the planning
// question directly: does the planner's pick win, and if not, how much
// does executing it cost over the measured-cheapest? Both sides of that
// comparison are priced in time with the planner's own per-family
// constants (planner.NsPerOp): the pick is ranked by predicted ops ×
// ns/op, so measured cells are ranked by measured ops × the same ns/op.
//
// Every number here is deterministic given the seed (model arithmetic
// and degree sums, no wall clocks), so the printed table is pinned
// byte for byte by the testdata/planner.txt golden (TestPlannerGolden;
// regenerate with `go test ./internal/experiments -update`).

// PlannerRow is one grid cell: eq. (50)'s prediction for a
// (method, order) pair next to the exact measured model cost on the
// realized graph.
type PlannerRow struct {
	Workload string // truncation: root or linear
	Method   string
	Order    string
	// Predicted is the plan's total model-op prediction; Measured is
	// listing.ModelCost on the prepared orientation (what an executed
	// sweep would meter); Ratio is Predicted/Measured.
	Predicted float64
	Measured  int64
	Ratio     float64
}

// PlannerSummary scores the planner's choice on one workload. "Cost"
// here is model ops × planner.NsPerOp of the cell's method, predicted
// or measured.
type PlannerSummary struct {
	Workload string
	// PredictedBest is the plan's pick and MeasuredBest the cell with
	// the lowest measured cost, each as "method+order".
	PredictedBest string
	MeasuredBest  string
	// MeasuredRank is the predicted-best cell's 1-based position when
	// cells are sorted by measured cost: 1 means the planner picked the
	// true optimum.
	MeasuredRank int
	// Overhead is cost(PredictedBest)/cost(MeasuredBest), both measured —
	// the multiplier actually paid for trusting the model; 1 means no
	// regret.
	Overhead float64
}

// PlannerTable is the validation result: every grid cell, then one
// summary per workload.
type PlannerTable struct {
	N       int
	Alpha   float64
	Rows    []PlannerRow
	Summary []PlannerSummary
}

// PlannerConfig parameterizes TablePlanner.
type PlannerConfig struct {
	// N is the graph size. Default 20000.
	N int
	// Alpha is the Pareto shape. Default 1.5.
	Alpha float64
	// Seed feeds graph generation and the uniform order. Default
	// 20170514.
	Seed uint64
	// Workers parallelizes plan pricing; the output is identical for
	// any value.
	Workers int
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.Alpha == 0 {
		c.Alpha = 1.5
	}
	if c.Seed == 0 {
		c.Seed = 20170514
	}
	return c
}

// TablePlanner generates the workloads, plans them, measures every grid
// cell, and scores the plan choices.
func TablePlanner(cfg PlannerConfig) (*PlannerTable, error) {
	cfg = cfg.withDefaults()
	p := degseq.StandardPareto(cfg.Alpha)
	tab := &PlannerTable{N: cfg.N, Alpha: cfg.Alpha}
	for ti, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		workload := trunc.String()
		g, _, err := gen.ParetoGraph(p, cfg.N, trunc, stats.NewRNGFromSeed(cfg.Seed+uint64(ti)))
		if err != nil {
			return nil, err
		}
		plan, err := planner.Compute(g, planner.WithWorkers(cfg.Workers))
		if err != nil {
			return nil, err
		}
		// Measure each order's column with one prepared orientation:
		// listing.ModelCost reads degree sums, so the whole 18-method
		// column costs O(n) after the prepare.
		measured := make(map[string]int64, len(listing.Methods)*len(planner.Orders))
		for _, kind := range planner.Orders {
			o, err := core.Prepare(g, core.Config{Order: kind, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			for _, m := range listing.Methods {
				measured[m.String()+"/"+kind.String()] = int64(math.Round(listing.ModelCost(o, m)))
			}
		}
		// Cells are scored by measured ops priced with the planner's
		// per-family ns/op, the quantity the plan ranks by.
		pick := plan.Best()
		var best, predBest PlannerRow
		var bestNs, predNs float64
		var cellNs []float64
		for _, m := range listing.Methods {
			for _, kind := range planner.Orders {
				c, ok := plan.Lookup(m, kind)
				if !ok {
					return nil, fmt.Errorf("experiments: plan missing cell %v/%v", m, kind)
				}
				row := PlannerRow{
					Workload:  workload,
					Method:    m.String(),
					Order:     kind.String(),
					Predicted: c.Total,
					Measured:  measured[m.String()+"/"+kind.String()],
				}
				if row.Measured > 0 {
					row.Ratio = row.Predicted / float64(row.Measured)
				}
				tab.Rows = append(tab.Rows, row)
				ns := float64(row.Measured) * planner.NsPerOp(m)
				cellNs = append(cellNs, ns)
				if best.Workload == "" || ns < bestNs {
					best, bestNs = row, ns
				}
				if m == pick.Method && kind == pick.Order {
					predBest, predNs = row, ns
				}
			}
		}
		rank := 0
		for _, ns := range cellNs {
			if ns < predNs {
				rank++
			}
		}
		sum := PlannerSummary{
			Workload:      workload,
			PredictedBest: predBest.Method + "+" + predBest.Order,
			MeasuredBest:  best.Method + "+" + best.Order,
			MeasuredRank:  rank + 1,
		}
		if bestNs > 0 {
			sum.Overhead = predNs / bestNs
		} else {
			sum.Overhead = 1
		}
		tab.Summary = append(tab.Summary, sum)
	}
	return tab, nil
}

// FormatPlanner renders the validation as text: the summary first (the
// planning verdict), then every grid cell. Floats print at %.6f so the
// text pins every predicted cost and overhead for the golden.
func FormatPlanner(t *PlannerTable) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Planner validation — predicted (eq. 50 on fitted distribution) vs measured model ops, n=%d, α=%g; picks ranked by ops × per-family ns/op\n",
		t.N, t.Alpha)
	for _, s := range t.Summary {
		fmt.Fprintf(&sb, "%-8s predicted-best %-28s measured-best %-28s measured-rank %d overhead %.6f\n",
			s.Workload, s.PredictedBest, s.MeasuredBest, s.MeasuredRank, s.Overhead)
	}
	fmt.Fprintf(&sb, "%-8s %-6s %-26s %18s %14s %8s\n",
		"workload", "method", "order", "predicted", "measured", "ratio")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-8s %-6s %-26s %18.6f %14d %8.6f\n",
			r.Workload, r.Method, r.Order, r.Predicted, r.Measured, r.Ratio)
	}
	return sb.String()
}

// WritePlannerCSV emits the rows as CSV.
func WritePlannerCSV(w io.Writer, t *PlannerTable) error {
	if _, err := fmt.Fprintln(w, "workload,method,order,predicted_ops,measured_ops,ratio"); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%.6f,%d,%.6f\n",
			r.Workload, r.Method, r.Order, r.Predicted, r.Measured, r.Ratio); err != nil {
			return err
		}
	}
	return nil
}
