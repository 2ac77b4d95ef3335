package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
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
// and degree sums, no wall clocks), so the checked-in BENCH_planner.json
// gates with exact integer comparisons and a tiny float tolerance for
// libm-level drift — unlike the timing benches, host shape only
// annotates the document, it never exempts rows.

// PlannerSchema versions the BENCH_planner.json layout.
const PlannerSchema = "trilist/planner-bench/v1"

// plannerPredTol is the relative tolerance for comparing predicted
// costs (and derived ratios) against a baseline: the model arithmetic
// is pure float64 with a fixed evaluation order, but math.Exp/Pow may
// drift by an ulp across architectures.
const plannerPredTol = 1e-9

// PlannerRow is one grid cell: eq. (50)'s prediction for a
// (method, order) pair next to the exact measured model cost on the
// realized graph.
type PlannerRow struct {
	Workload string `json:"workload"` // truncation: root or linear
	Method   string `json:"method"`
	Order    string `json:"order"`
	// Predicted is the plan's total model-op prediction; Measured is
	// listing.ModelCost on the prepared orientation (what an executed
	// sweep would meter); Ratio is Predicted/Measured.
	Predicted float64 `json:"predicted_ops"`
	Measured  int64   `json:"measured_ops"`
	Ratio     float64 `json:"ratio"`
}

func (r PlannerRow) key() string {
	return fmt.Sprintf("%s/%s/%s", r.Workload, r.Method, r.Order)
}

// PlannerSummary scores the planner's choice on one workload. "Cost"
// here is model ops × planner.NsPerOp of the cell's method, predicted
// or measured.
type PlannerSummary struct {
	Workload string `json:"workload"`
	// PredictedBest is the plan's pick and MeasuredBest the cell with
	// the lowest measured cost, each as "method+order".
	PredictedBest string `json:"predicted_best"`
	MeasuredBest  string `json:"measured_best"`
	// MeasuredRank is the predicted-best cell's 1-based position when
	// cells are sorted by measured cost: 1 means the planner picked the
	// true optimum.
	MeasuredRank int `json:"predicted_best_measured_rank"`
	// Overhead is cost(PredictedBest)/cost(MeasuredBest), both measured —
	// the multiplier actually paid for trusting the model; 1 means no
	// regret.
	Overhead float64 `json:"overhead"`
}

// PlannerBench is the persisted validation document.
type PlannerBench struct {
	Schema string  `json:"schema"`
	N      int     `json:"n"`
	Alpha  float64 `json:"alpha"`
	Seed   uint64  `json:"seed"`
	// NumCPU and GoMaxProcs record the host, matching the other bench
	// schemas. Informational only: every measurement in this document is
	// machine-independent.
	NumCPU     int              `json:"num_cpu,omitempty"`
	GoMaxProcs int              `json:"gomaxprocs,omitempty"`
	Rows       []PlannerRow     `json:"rows"`
	Summary    []PlannerSummary `json:"summary"`
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
	// Workers parallelizes plan pricing and graph preparation; the
	// output is identical for any value.
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
func TablePlanner(cfg PlannerConfig) (*PlannerBench, error) {
	cfg = cfg.withDefaults()
	p := degseq.StandardPareto(cfg.Alpha)
	bench := &PlannerBench{
		Schema:     PlannerSchema,
		N:          cfg.N,
		Alpha:      cfg.Alpha,
		Seed:       cfg.Seed,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
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
			o, err := core.Prepare(g, core.Config{Order: kind, Seed: cfg.Seed, Workers: cfg.Workers})
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
				bench.Rows = append(bench.Rows, row)
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
		bench.Summary = append(bench.Summary, sum)
	}
	return bench, nil
}

// FormatPlanner renders the validation as text: the summary first (the
// planning verdict), then every grid cell.
func FormatPlanner(b *PlannerBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Planner validation — predicted (eq. 50 on fitted distribution) vs measured model ops, n=%d, α=%g; picks ranked by ops × per-family ns/op\n",
		b.N, b.Alpha)
	for _, s := range b.Summary {
		fmt.Fprintf(&sb, "%-8s predicted-best %-28s measured-best %-28s measured-rank %d overhead %.4f\n",
			s.Workload, s.PredictedBest, s.MeasuredBest, s.MeasuredRank, s.Overhead)
	}
	fmt.Fprintf(&sb, "%-8s %-6s %-26s %14s %14s %8s\n",
		"workload", "method", "order", "predicted", "measured", "ratio")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-8s %-6s %-26s %14.6g %14d %8.4f\n",
			r.Workload, r.Method, r.Order, r.Predicted, r.Measured, r.Ratio)
	}
	return sb.String()
}

// WritePlannerCSV emits the rows as CSV.
func WritePlannerCSV(w io.Writer, b *PlannerBench) error {
	if _, err := fmt.Fprintln(w, "workload,method,order,predicted_ops,measured_ops,ratio"); err != nil {
		return err
	}
	for _, r := range b.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%.6f,%d,%.6f\n",
			r.Workload, r.Method, r.Order, r.Predicted, r.Measured, r.Ratio); err != nil {
			return err
		}
	}
	return nil
}

// WritePlannerJSON emits the bench document as indented JSON — the
// BENCH_planner.json format.
func WritePlannerJSON(w io.Writer, b *PlannerBench) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadPlannerJSON parses a bench document and validates its schema.
func ReadPlannerJSON(r io.Reader) (*PlannerBench, error) {
	var b PlannerBench
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("experiments: planner bench: %w", err)
	}
	if b.Schema != PlannerSchema {
		return nil, fmt.Errorf("experiments: planner bench schema %q, want %q", b.Schema, PlannerSchema)
	}
	return &b, nil
}

// relClose reports |a-b| <= tol·max(|a|,|b|), the float gate for
// deterministic-but-libm-dependent quantities.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// ComparePlanner gates cur against base. Everything in this document is
// deterministic given the seed, so the gate is strict: every baseline
// row must exist with an exactly equal Measured and a Predicted within
// plannerPredTol; every baseline summary must match its workload's
// choices exactly, with Overhead within plannerPredTol. The returned
// strings describe violations, sorted; empty means the gate passes.
func ComparePlanner(cur, base *PlannerBench) []string {
	curByKey := make(map[string]PlannerRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curByKey[r.key()] = r
	}
	var out []string
	for _, b := range base.Rows {
		c, ok := curByKey[b.key()]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from current run", b.key()))
			continue
		}
		if c.Measured != b.Measured {
			out = append(out, fmt.Sprintf("%s: measured_ops %d, baseline %d", b.key(), c.Measured, b.Measured))
		}
		if !relClose(c.Predicted, b.Predicted, plannerPredTol) {
			out = append(out, fmt.Sprintf("%s: predicted_ops %g, baseline %g", b.key(), c.Predicted, b.Predicted))
		}
	}
	curSum := make(map[string]PlannerSummary, len(cur.Summary))
	for _, s := range cur.Summary {
		curSum[s.Workload] = s
	}
	for _, b := range base.Summary {
		c, ok := curSum[b.Workload]
		if !ok {
			out = append(out, fmt.Sprintf("%s: summary missing from current run", b.Workload))
			continue
		}
		if c.PredictedBest != b.PredictedBest || c.MeasuredBest != b.MeasuredBest || c.MeasuredRank != b.MeasuredRank {
			out = append(out, fmt.Sprintf("%s: summary %s/%s/rank %d, baseline %s/%s/rank %d", b.Workload,
				c.PredictedBest, c.MeasuredBest, c.MeasuredRank, b.PredictedBest, b.MeasuredBest, b.MeasuredRank))
		}
		if !relClose(c.Overhead, b.Overhead, plannerPredTol) {
			out = append(out, fmt.Sprintf("%s: overhead %g, baseline %g", b.Workload, c.Overhead, b.Overhead))
		}
	}
	slices.Sort(out)
	return out
}
