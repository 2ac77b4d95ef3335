// Package planner turns the paper's analytical cost model into an
// online query optimizer: given a concrete graph, it fits the empirical
// degree distribution from the degree histogram, evaluates the exact
// discrete model of eq. (50) for every admissible (method, order) pair,
// prices each in nanoseconds, and returns a ranked Plan — the
// predicted-fastest execution spec, the full ranking, and the
// distribution-fit diagnostics behind it.
//
// This is the decision-making layer over the mechanism layers below it:
// internal/model prices a spec against a distribution, internal/listing
// executes one, and the planner closes the loop by choosing. The trid
// daemon memoizes one Plan per registered graph and resolves
// method=auto jobs through it; cmd/trilist -plan prints the ranked
// table; cmd/experiments -table planner validates predictions against
// measured sweep costs, and internal/experiments pins that validation
// with a golden file.
//
// The grid is ranked by predicted time, not by operation count: each
// cell's eq. (50) total is weighted by a checked-in per-family cost of
// one operation (NsPerOp). Per §2.3 a lookup edge iterator costs the
// same operations as its vertex iterator, and per §2.4 methods with the
// same count still differ in per-operation speed, so counts alone
// cannot separate the families.
//
// The grid spans all 18 methods × the 5 distribution-only orders (θ_D,
// θ_A, θ_RR, θ_CRR, θ_U). The degenerate (smallest-last) order is
// excluded: its ξ limit map depends on the edge structure, not just the
// degree sequence (§7.5), so eq. (50) cannot price it — it is
// un-plannable.
package planner

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"trilist/internal/degseq"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/order"
	"trilist/internal/par"
)

// Orders lists the plannable orders in the ranking's tie-break order
// (the paper's Table 12 column order minus θ_degen).
var Orders = []order.Kind{
	order.KindDescending,
	order.KindAscending,
	order.KindRoundRobin,
	order.KindCRR,
	order.KindUniform,
}

// Plannable reports whether the cost model can price the order from a
// degree distribution alone. False only for the degenerate
// (smallest-last) order, whose limit map needs the edge structure.
func Plannable(k order.Kind) bool {
	for _, o := range Orders {
		if o == k {
			return true
		}
	}
	return false
}

// orderIndex returns k's position in Orders (tie-break rank), or
// len(Orders) for un-plannable kinds.
func orderIndex(k order.Kind) int {
	for i, o := range Orders {
		if o == k {
			return i
		}
	}
	return len(Orders)
}

// Per-family cost of one eq. (50) model operation, in nanoseconds. Each
// is the geometric mean of list wall time ÷ predicted ops over five
// Pareto(1.5) graphs (both truncations at n = 10k and 40k, linear
// truncation at 200k), timed with trilist -stages on a 2-CPU x86-64
// host; the table is in EXPERIMENTS.md, "Planner validation". A vertex
// iterator probes one global arc hash set per operation, a lookup edge
// iterator the per-worker stamp arena, and a scanning edge iterator
// takes one stamp-probe or gallop step. The constants are checked in,
// never calibrated on the host, so a plan stays a pure function of the
// degree histogram.
const (
	vertexNsPerOp   = 42
	lookupNsPerOp   = 16
	scanningNsPerOp = 3.3
)

// NsPerOp returns the predicted cost of one model operation of m, in
// nanoseconds.
func NsPerOp(m listing.Method) float64 {
	switch m.Family() {
	case listing.VertexIterator:
		return vertexNsPerOp
	case listing.LookupEdgeIterator:
		return lookupNsPerOp
	default:
		return scanningNsPerOp
	}
}

// Candidate is one priced cell of the (method, order) grid.
type Candidate struct {
	Method listing.Method
	Order  order.Kind
	// PerNode is E[c_n(M, θ)|D_n] of eq. (50): expected model
	// operations per non-isolated node.
	PerNode float64
	// Total is PerNode × (non-isolated nodes) — directly comparable to
	// listing.ModelCost and Stats.ModelOps of an executed sweep.
	Total float64
	// PredictedNs is Total × NsPerOp(Method): the predicted sweep time
	// the ranking sorts by.
	PredictedNs float64
}

// Spec renders the candidate in the paper's notation, e.g. "E1+θ_D".
func (c Candidate) Spec() string {
	return fmt.Sprintf("%v+%s", c.Method, c.Order.ShortName())
}

// Fit reports the degree-distribution fit behind a Plan.
type Fit struct {
	// Nodes and Edges describe the whole graph; Isolated counts
	// degree-0 nodes, which are excluded from the distribution (they
	// cost nothing under every method).
	Nodes    int   `json:"nodes"`
	Edges    int64 `json:"edges"`
	Isolated int64 `json:"isolated_nodes"`
	// MaxDegree is the top of the empirical support, L_n.
	MaxDegree int64 `json:"max_degree"`
	// MeanDegree and SecondMoment are E[D] and E[D²] of the empirical
	// distribution (over non-isolated nodes).
	MeanDegree   float64 `json:"mean_degree"`
	SecondMoment float64 `json:"second_moment"`
	// TailAlpha/TailBeta are the moment-matched Pareto parameters of
	// §7.1 (D = ⌈X⌉ with X continuous Pareto, fitted on the
	// midpoint-corrected moments of D − ½). Valid only when TailOK.
	TailAlpha float64 `json:"tail_alpha,omitempty"`
	TailBeta  float64 `json:"tail_beta,omitempty"`
	// TailOK is false when the moments admit no Pareto fit (the
	// normalized second moment must exceed 2; method-of-moments can
	// only ever produce α > 2). The ranking never depends on it — the
	// grid is priced on the empirical distribution itself — but the
	// fitted (α, β) locate the graph against the paper's asymptotic
	// regimes (Theorem 2 finiteness thresholds).
	TailOK bool `json:"tail_ok"`
	// TailRelErr is |discretized fitted mean − empirical mean| /
	// empirical mean: how much the midpoint correction distorts the
	// first moment. Small values mean the Pareto family describes the
	// body of the distribution well.
	TailRelErr float64 `json:"tail_rel_err,omitempty"`
}

// Plan is a ranked evaluation of the whole candidate grid for one graph.
type Plan struct {
	Fit Fit
	// Ranking holds every candidate, fastest predicted time first. Ties
	// break by method declaration order (T1..L6), then by Orders
	// position, so a plan is a pure function of the degree histogram.
	Ranking []Candidate
}

// Best returns the candidate with the lowest predicted time.
func (p *Plan) Best() Candidate { return p.Ranking[0] }

// BestUnder returns the predicted-fastest candidate constrained to a
// fixed order — the method=auto + explicit-order case. ok is false for
// un-plannable (degenerate) orders.
func (p *Plan) BestUnder(k order.Kind) (Candidate, bool) {
	for _, c := range p.Ranking {
		if c.Order == k {
			return c, true
		}
	}
	return Candidate{}, false
}

// Lookup returns the grid cell for an exact (method, order) pair.
func (p *Plan) Lookup(m listing.Method, k order.Kind) (Candidate, bool) {
	for _, c := range p.Ranking {
		if c.Method == m && c.Order == k {
			return c, true
		}
	}
	return Candidate{}, false
}

// Option configures Compute/ComputeDist.
type Option func(*options)

type options struct {
	workers int
}

// WithWorkers evaluates the candidate grid with up to w goroutines
// (values below 2 run serially). The plan is byte-identical for every
// worker count: each grid cell is priced independently into its own
// slot.
func WithWorkers(w int) Option {
	return func(o *options) { o.workers = w }
}

// Compute builds the plan for a concrete graph: fit the empirical
// degree distribution from the degree histogram, price the grid, rank.
// Edgeless graphs (no degree ≥ 1 nodes) get a trivial all-zero plan
// rather than an error, so registration never fails on them.
func Compute(g *graph.Graph, opts ...Option) (*Plan, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	hist := g.DegreeHistogram()
	fit := Fit{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		MaxDegree: int64(g.MaxDegree()),
	}
	if len(hist) > 0 {
		fit.Isolated = hist[0]
	}
	active := int64(fit.Nodes) - fit.Isolated
	if active == 0 || fit.Edges == 0 {
		// No triangles, no cost: every candidate prices to zero and the
		// canonical tie-break (T1+θ_D) wins.
		return &Plan{Fit: fit, Ranking: grid()}, nil
	}
	emp, err := degseq.FromHistogram(hist)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	fit.MeanDegree = emp.Mean()
	fit.SecondMoment = emp.SecondMoment()
	fit.TailAlpha, fit.TailBeta, fit.TailRelErr, fit.TailOK = fitTail(emp)
	ranking, err := priceGrid(emp, active, o.workers)
	if err != nil {
		return nil, err
	}
	return &Plan{Fit: fit, Ranking: ranking}, nil
}

// ComputeDist builds a plan directly from a finite-support degree
// distribution and a node count — pricing a hypothetical workload
// before any graph exists. The distribution plays the role of the
// empirical fit; nodes scales PerNode into Total.
func ComputeDist(dist degseq.Dist, nodes int64, opts ...Option) (*Plan, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if nodes < 0 {
		return nil, fmt.Errorf("planner: negative node count %d", nodes)
	}
	fit := Fit{
		Nodes:      int(nodes),
		MaxDegree:  dist.Max(),
		MeanDegree: dist.Mean(),
	}
	type secondMomenter interface{ SecondMoment() float64 }
	if sm, ok := dist.(secondMomenter); ok {
		fit.SecondMoment = sm.SecondMoment()
	}
	ranking, err := priceGrid(dist, nodes, o.workers)
	if err != nil {
		return nil, err
	}
	return &Plan{Fit: fit, Ranking: ranking}, nil
}

// grid enumerates the candidate cells in deterministic declaration
// order: methods T1..L6 outer, Orders inner.
func grid() []Candidate {
	cands := make([]Candidate, 0, len(listing.Methods)*len(Orders))
	for _, m := range listing.Methods {
		for _, k := range Orders {
			cands = append(cands, Candidate{Method: m, Order: k})
		}
	}
	return cands
}

// priceGrid evaluates eq. (50) for every cell, prices it in ns and sorts
// fastest-first.
// Cells are independent, each worker writes only its own slots, and the
// sort's tie-break is total, so the result is identical at any worker
// count.
func priceGrid(dist degseq.Dist, nodes int64, workers int) ([]Candidate, error) {
	cands := grid()
	errs := make([]error, len(cands))
	par.Ranges(len(cands), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			per, err := model.DiscreteCost(model.Spec{Method: cands[i].Method, Order: cands[i].Order}, dist)
			if err != nil {
				errs[i] = err
				continue
			}
			cands[i].PerNode = per
			cands[i].Total = per * float64(nodes)
			cands[i].PredictedNs = cands[i].Total * NsPerOp(cands[i].Method)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("planner: pricing grid: %w", err)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.PredictedNs != b.PredictedNs {
			return a.PredictedNs < b.PredictedNs
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return orderIndex(a.Order) < orderIndex(b.Order)
	})
	return cands, nil
}

// fitTail moment-matches a Pareto tail to the empirical distribution:
// with D = ⌈X⌉ for X ~ continuous Pareto(α, β), the latent moments are
// approximated by the midpoint correction X ≈ D − ½, and
// r = E[X²]/E[X]² determines α = 2(r−1)/(r−2), β = E[X](α−1). ok is
// false when r ≤ 2 (the family cannot match the moments; note the
// method only ever produces α > 2, so genuinely heavy tails show up as
// large-α fits with large relErr, not as α < 2).
func fitTail(e *degseq.Empirical) (alpha, beta, relErr float64, ok bool) {
	m1 := e.Mean()
	m2 := e.SecondMoment()
	c1 := m1 - 0.5
	c2 := m2 - m1 + 0.25
	if c1 <= 0 || c2 <= 0 {
		return 0, 0, 0, false
	}
	r := c2 / (c1 * c1)
	if !(r > 2) || math.IsInf(r, 0) || math.IsNaN(r) {
		return 0, 0, 0, false
	}
	alpha = 2 * (r - 1) / (r - 2)
	beta = c1 * (alpha - 1)
	fitted := degseq.Pareto{Alpha: alpha, Beta: beta}
	relErr = math.Abs(fitted.Mean()-m1) / m1
	return alpha, beta, relErr, true
}

// RecommendedOrder returns the paper-optimal order for the method
// (Corollaries 1–2): θ_D for T1/T4/E1/E2/L2/L6-shaped costs, θ_A for
// their reverses, θ_RR for T2/T5/L1/L3, and θ_CRR for E4/E5/E6/L5.
// This is the static (distribution-free) half of planning; a Plan's
// BestUnder refines it for a concrete graph.
func RecommendedOrder(m listing.Method) order.Kind {
	switch m {
	case listing.T1, listing.T4, listing.E1, listing.E2, listing.L2, listing.L6:
		return order.KindDescending
	case listing.T3, listing.T6, listing.E3, listing.L4:
		return order.KindAscending
	case listing.T2, listing.T5, listing.L1, listing.L3:
		return order.KindRoundRobin
	case listing.E4, listing.E6, listing.E5, listing.L5:
		return order.KindCRR
	default:
		return order.KindDescending
	}
}

// Format renders the plan as a fixed-width ranked table, stable across
// runs and worker counts (golden-tested).
func (p *Plan) Format() string {
	var b strings.Builder
	f := p.Fit
	fmt.Fprintf(&b, "planner: nodes=%d edges=%d isolated=%d max-degree=%d\n",
		f.Nodes, f.Edges, f.Isolated, f.MaxDegree)
	fmt.Fprintf(&b, "fit: mean=%.6g E[D^2]=%.6g", f.MeanDegree, f.SecondMoment)
	if f.TailOK {
		fmt.Fprintf(&b, " pareto-tail: alpha=%.6g beta=%.6g rel-err=%.2f%%",
			f.TailAlpha, f.TailBeta, 100*f.TailRelErr)
	} else {
		b.WriteString(" pareto-tail: n/a")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%4s  %-32s  %14s  %14s  %14s\n", "rank", "plan", "per-node", "total", "ns")
	for i, c := range p.Ranking {
		fmt.Fprintf(&b, "%4d  %-32s  %14.6g  %14.6g  %14.6g\n",
			i+1, fmt.Sprintf("%v+%s", c.Method, c.Order), c.PerNode, c.Total, c.PredictedNs)
	}
	return b.String()
}
