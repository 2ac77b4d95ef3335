// Package core is the library's high-level façade: it wires the paper's
// three-step framework (§2.1) — relabel by a global order, orient each
// edge toward the smaller label, list triangles in ascending order —
// into one call. There is one entry point per input: ListCtx for a
// graph, ListOriented for an orientation Prepare already built. Both
// run the one-pass sweep or, with Config.Partition, the block-triple
// one. ExampleListCtx is the end-to-end tour.
package core

import (
	"context"
	"fmt"
	"time"

	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/obsv"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// Config selects the listing method and preprocessing order and how
// the sweep executes. The zero value lists with T1 under θ_A, serially.
type Config struct {
	// Method is the listing algorithm; the paper's recommended choices
	// are T1 (+ Descending), T2 (+ RoundRobin), E1 (+ Descending), and
	// E4 (+ CRR). Defaults to T1. A partitioned run must name E2, the
	// method its block sweep implements.
	Method listing.Method
	// Order is the relabeling permutation. The zero value is
	// KindAscending; KindDescending is the optimal order for T1
	// (planner.RecommendedOrder has the table for every method).
	Order order.Kind
	// Seed seeds KindUniform's RNG, the one randomized order.
	Seed uint64
	// Workers is the number of goroutines for the sweep; 0 and 1 both
	// mean serial. With n > 1 the visitor must be concurrency-safe. A
	// partitioned run keeps n block-triple passes in flight and
	// re-issues stragglers. Prepare is always serial. Results are
	// bitwise identical at any value.
	Workers int
	// Recorder, when non-nil, receives one span per pipeline stage
	// (rank and orient from Prepare, list from the sweep; partitioned
	// runs add one extmem.StageTriple span per block-triple attempt).
	// The nil default adds zero overhead, and attaching a recorder never
	// changes results: Stats stay bitwise identical.
	Recorder *obsv.Recorder
	// Partition, when non-nil, routes the sweep through the
	// partitioned lister (internal/extmem). Nil keeps the one-pass
	// sweep.
	Partition *Partition
}

// Partition configures the partitioned sweep: the orientation is split
// into Parts label ranges and listed one block triple at a time on the
// scatter/gather executor. Results are bitwise identical at any
// Config.Workers count.
type Partition struct {
	// Parts is the number of label ranges; it must be at least 1.
	Parts int
	// Events, when non-nil, taps the executor's event stream
	// (stragglers, duplicates, failures). Called from worker
	// goroutines — must be concurrency-safe.
	Events func(exec.Event)
}

// validate rejects configurations no run can honour.
func (cfg Config) validate() error {
	p := cfg.Partition
	switch {
	case p == nil:
		return nil
	case p.Parts < 1:
		return fmt.Errorf("core: partitioned listing needs at least 1 part, got %d", p.Parts)
	case cfg.Method != listing.E2:
		return fmt.Errorf("core: partitioned listing runs the E2 block sweep; method %v cannot be combined with it", cfg.Method)
	}
	return nil
}

// Result reports one listing run.
type Result struct {
	listing.Stats
	// Order actually used.
	Order order.Kind
	// MaxOutDeg is max_i X_i(θ) of the orientation.
	MaxOutDeg int64
	// PrepTime covers relabel + orient; ListTime covers the traversal.
	PrepTime, ListTime time.Duration
	// Partitioned carries the partitioned-run meters (passes, block I/O)
	// when the run went through Config.Partition; nil otherwise.
	Partitioned *extmem.Result
}

// Prepare performs steps 1–2 of the framework: relabel g by cfg.Order and
// orient the edges, serially on the caller's goroutine. The returned
// digraph can be reused across methods. The rank slice is built here
// and handed straight to digraph.OrientOwned, skipping the defensive
// copy Orient makes for shared ranks.
func Prepare(g *graph.Graph, cfg Config) (*digraph.Oriented, error) {
	var rng *stats.RNG
	if cfg.Order == order.KindUniform {
		rng = stats.NewRNGFromSeed(cfg.Seed)
	}
	spRank := cfg.Recorder.Start(obsv.StageRank)
	rank, err := order.Rank(g, cfg.Order, rng)
	spRank.End()
	if err != nil {
		return nil, fmt.Errorf("core: relabeling: %w", err)
	}
	spOrient := cfg.Recorder.Start(obsv.StageOrient)
	o, err := digraph.OrientOwned(g, rank)
	spOrient.End()
	if err != nil {
		return nil, fmt.Errorf("core: orientation: %w", err)
	}
	return o, nil
}

// ListCtx runs the configured method over g — Prepare, then
// ListOriented — and reports each triangle to visit (which may be nil)
// with relabeled IDs x < y < z. The sweep polls ctx at block
// granularity and stops early once ctx is done. On cancellation the
// returned error is ctx.Err() and the Result carries the partial Stats
// accumulated up to the stop — every triangle counted there was
// reported to the visitor exactly once. The preprocessing steps
// (relabel + orient) are not cancellable; ctx is only consulted before
// and during the sweep.
func ListCtx(ctx context.Context, g *graph.Graph, cfg Config, visit listing.Visitor) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	o, err := Prepare(g, cfg)
	if err != nil {
		return Result{}, err
	}
	t1 := time.Now()
	res, err := ListOriented(ctx, o, cfg, visit)
	res.PrepTime = t1.Sub(t0)
	return res, err
}

// ListOriented runs step 3 only, over an already prepared orientation —
// the entry point for callers that amortize Prepare across many runs
// (the trid server's graph registry). cfg.Order is only recorded in the
// Result; Seed is unused. Cancellation semantics match ListCtx;
// PrepTime is zero.
func ListOriented(ctx context.Context, o *digraph.Oriented, cfg Config, visit listing.Visitor) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.Partition != nil {
		return listPartitioned(ctx, o, cfg, visit)
	}
	t1 := time.Now()
	st, err := listing.RunCtx(ctx, o, cfg.Method, visit,
		listing.WithWorkers(cfg.Workers), listing.WithRecorder(cfg.Recorder))
	return Result{
		Stats:     st,
		Order:     cfg.Order,
		MaxOutDeg: o.MaxOutDeg(),
		ListTime:  time.Since(t1),
	}, err
}

// listPartitioned is the Config.Partition path of ListOriented: the
// block-triple schedule on the scatter/gather executor, over in-memory
// blocks that are released when it returns.
func listPartitioned(ctx context.Context, o *digraph.Oriented, cfg Config, visit listing.Visitor) (Result, error) {
	p := cfg.Partition
	store := extmem.NewMemStore()
	defer store.Close()

	opts := []extmem.Option{
		extmem.WithWorkers(cfg.Workers),
		extmem.WithRecorder(cfg.Recorder),
	}
	if cfg.Workers > 1 {
		// Straggler re-issue only makes sense with idle workers to spare.
		opts = append(opts, extmem.WithSpeculation())
	}
	if p.Events != nil {
		opts = append(opts, extmem.WithExecEvents(p.Events))
	}

	t1 := time.Now()
	sp := cfg.Recorder.Start(obsv.StageList)
	er, runErr := extmem.Run(ctx, o, p.Parts, store, visit, opts...)
	sp.End()
	res := Result{
		// The partitioned sweep is the E2 intersection restricted to
		// block triples; its comparisons land in the same meter.
		Stats: listing.Stats{
			Method:      listing.E2,
			Triangles:   er.Triangles,
			Comparisons: er.Comparisons,
		},
		Order:       cfg.Order,
		MaxOutDeg:   o.MaxOutDeg(),
		ListTime:    time.Since(t1),
		Partitioned: &er,
	}
	return res, runErr
}

// Clustering lists g's triangles in one sweep (E1 under θ_D) and
// returns their count, the global clustering coefficient
// 3·triangles / open-wedges, and each node's local clustering
// coefficient — triangles through v divided by C(deg(v), 2), indexed
// by input ID (0 below degree 2). Clustering coefficients are the
// canonical triangle-listing application the paper's introduction
// motivates.
func Clustering(g *graph.Graph) (triangles int64, global float64, local []float64, err error) {
	cfg := Config{Method: listing.E1, Order: order.KindDescending}
	o, err := Prepare(g, cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	n := g.NumNodes()
	// Map labels back to input IDs.
	invRank := make([]int32, n)
	for v := 0; v < n; v++ {
		invRank[o.Rank(int32(v))] = int32(v)
	}
	triAt := make([]int64, n)
	res, err := ListOriented(context.Background(), o, cfg, func(x, y, z int32) {
		triAt[invRank[x]]++
		triAt[invRank[y]]++
		triAt[invRank[z]]++
	})
	if err != nil {
		return 0, 0, nil, err
	}
	local = make([]float64, n)
	var wedges int64
	for v := range local {
		d := int64(g.Degree(int32(v)))
		w := d * (d - 1) / 2
		wedges += w
		if w > 0 {
			local[v] = float64(triAt[v]) / float64(w)
		}
	}
	if wedges > 0 {
		global = 3 * float64(res.Triangles) / float64(wedges)
	}
	return res.Triangles, global, local, nil
}
