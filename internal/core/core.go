// Package core is the library's high-level façade: it wires the paper's
// three-step framework (§2.1) — relabel by a global order, orient each
// edge toward the smaller label, list triangles in ascending order — into
// one call, and exposes the analytical cost predictions next to measured
// costs so users can pick a method/order pair before paying for a run.
//
// Typical use:
//
//	g, _ := graph.ReadEdgeList(f)
//	res, _ := core.List(g, core.Config{Method: listing.T1, Order: order.KindDescending},
//	    func(x, y, z int32) { ... })
//	fmt.Println(res.Triangles, res.ModelOps())
package core

import (
	"context"
	"fmt"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/obsv"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

// Config selects the listing method and preprocessing order.
type Config struct {
	// Method is the listing algorithm; the paper's recommended choices
	// are T1 (+ Descending), T2 (+ RoundRobin), E1 (+ Descending), and
	// E4 (+ CRR). Defaults to T1.
	Method listing.Method
	// Order is the relabeling permutation. Defaults to KindDescending,
	// the optimal order for the default method.
	Order order.Kind
	// Seed feeds the RNG used by KindUniform; other orders ignore it.
	Seed uint64
	// Workers > 1 partitions the listing sweep across that many
	// goroutines (the visitor must then be concurrency-safe) and lets
	// Prepare parallelize the rank and orient stages; 0 or 1 runs
	// serially. Results are bitwise identical either way.
	Workers int
	// Kernel selects the neighbor-intersection strategy for the sweep
	// (listing.KernelMerge, KernelGallop, KernelBitmap, KernelAuto,
	// KernelBits, KernelHybrid). The zero value is KernelMerge, the
	// historical behavior; every kernel returns the same triangles and
	// bitwise-identical Stats, differing only in wall-clock speed.
	Kernel listing.Kernel
	// CoreThreshold is the bit-parallel kernels' core degree threshold
	// τ (listing.WithCoreThreshold): vertices whose remote-side degree
	// reaches τ carry packed bit rows. ≤ 0 selects automatically under
	// the row-memory budget. Ignored by the list kernels.
	CoreThreshold int32
	// Recorder, when non-nil, receives one span per pipeline stage
	// (rank and orient from Prepare, list from the sweep; partitioned
	// runs add one extmem.StageTriple span per block-triple attempt).
	// The nil default adds zero overhead, and attaching a recorder never
	// changes results: Stats stay bitwise identical.
	Recorder *obsv.Recorder
	// Parts > 0 routes the sweep through the external-memory partitioned
	// lister (internal/extmem): the orientation is split into Parts label
	// ranges and listed one block-triple at a time, with Workers passes
	// in flight concurrently. Method and Kernel are ignored — the
	// partitioned sweep is the E2-style block merge. Results are bitwise
	// identical at any Workers count. 0 keeps the in-memory sweep.
	Parts int
	// SpillDir, with Parts > 0, spills partition blocks to real files in
	// that directory (created if needed; block files are removed when the
	// run finishes, on success and error paths alike). Empty keeps blocks
	// in memory.
	SpillDir string
	// Retry, with Parts > 0, re-runs a block-triple pass after transient
	// store failures. The zero value means one attempt (no retry).
	Retry extmem.RetryPolicy
	// Speculate, with Parts > 0 and Workers > 1, enables straggler
	// re-issue of the slowest in-flight triple pass.
	Speculate bool
	// ExecEvents, when non-nil with Parts > 0, taps the executor's event
	// stream (retries, stragglers, failures). Called from worker
	// goroutines — must be concurrency-safe.
	ExecEvents func(exec.Event)
}

// Recommended returns the paper-optimal order for the method
// (Corollaries 1–2). It delegates to planner.RecommendedOrder, the
// single home of the selection tables.
func Recommended(m listing.Method) order.Kind {
	return planner.RecommendedOrder(m)
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
	// Partitioned carries the external-memory meters (passes, block I/O)
	// when the run went through Config.Parts; nil for in-memory sweeps.
	Partitioned *extmem.Result
	// Tier reports the bit-parallel core/fringe split when the run used
	// KernelBits or KernelHybrid on an in-memory SEI sweep; zero
	// otherwise. Telemetry only — Stats stays kernel-invariant.
	Tier listing.TierStats
}

// Prepare performs steps 1–2 of the framework: relabel g by cfg.Order and
// orient the edges, using cfg.Workers goroutines for both stages. The
// returned digraph can be reused across methods. The rank slice is built
// here and handed straight to digraph.OrientOwned, skipping the
// defensive copy Orient makes for shared ranks.
func Prepare(g *graph.Graph, cfg Config) (*digraph.Oriented, error) {
	var rng *stats.RNG
	if cfg.Order == order.KindUniform {
		rng = stats.NewRNGFromSeed(cfg.Seed)
	}
	spRank := cfg.Recorder.Start(obsv.StageRank)
	rank, err := order.Rank(g, cfg.Order, rng, order.WithWorkers(cfg.Workers))
	spRank.End()
	if err != nil {
		return nil, fmt.Errorf("core: relabeling: %w", err)
	}
	spOrient := cfg.Recorder.Start(obsv.StageOrient)
	o, err := digraph.OrientOwned(g, rank, digraph.WithWorkers(cfg.Workers))
	spOrient.End()
	if err != nil {
		return nil, fmt.Errorf("core: orientation: %w", err)
	}
	return o, nil
}

// List runs the configured method over g and reports each triangle to
// visit (which may be nil) with relabeled IDs x < y < z.
func List(g *graph.Graph, cfg Config, visit listing.Visitor) (Result, error) {
	return ListCtx(context.Background(), g, cfg, visit)
}

// ListCtx is List with cooperative cancellation: the listing sweep polls
// ctx at block granularity and stops early once ctx is done. On
// cancellation the returned error is ctx.Err() and the Result carries
// the partial Stats accumulated up to the stop — every triangle counted
// there was reported to the visitor exactly once. The preprocessing
// steps (relabel + orient) are not cancellable; ctx is only consulted
// before and during the sweep.
func ListCtx(ctx context.Context, g *graph.Graph, cfg Config, visit listing.Visitor) (Result, error) {
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
// (the trid server's graph registry). Cancellation semantics match
// ListCtx; PrepTime is zero.
func ListOriented(ctx context.Context, o *digraph.Oriented, cfg Config, visit listing.Visitor) (Result, error) {
	if cfg.Parts > 0 {
		return listPartitioned(ctx, o, cfg, visit)
	}
	t1 := time.Now()
	var st listing.Stats
	var tier listing.TierStats
	var runErr error
	opts := []listing.Option{
		listing.WithKernel(cfg.Kernel), listing.WithRecorder(cfg.Recorder),
		listing.WithCoreThreshold(cfg.CoreThreshold), listing.WithTierStats(&tier),
	}
	if cfg.Workers > 1 {
		st, runErr = listing.RunParallelCtx(ctx, o, cfg.Method, cfg.Workers, visit, opts...)
	} else {
		st, runErr = listing.RunCtx(ctx, o, cfg.Method, visit, opts...)
	}
	t2 := time.Now()
	return Result{
		Stats:     st,
		Order:     cfg.Order,
		MaxOutDeg: o.MaxOutDeg(),
		ListTime:  t2.Sub(t1),
		Tier:      tier,
	}, runErr
}

// listPartitioned is the Config.Parts > 0 path of ListOriented: the
// external-memory block-triple schedule on the scatter/gather executor.
// The block store's lifecycle is owned here — spill files are removed
// before returning on every path, success, cancellation and error alike.
func listPartitioned(ctx context.Context, o *digraph.Oriented, cfg Config, visit listing.Visitor) (res Result, err error) {
	var store extmem.BlockStore
	if cfg.SpillDir != "" {
		fs, ferr := extmem.NewFileStore(cfg.SpillDir)
		if ferr != nil {
			return Result{}, fmt.Errorf("core: partitioned listing: %w", ferr)
		}
		store = fs
	} else {
		store = extmem.NewMemStore()
	}
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("core: closing block store: %w", cerr)
		}
	}()

	opts := []extmem.Option{
		extmem.WithWorkers(cfg.Workers),
		extmem.WithRecorder(cfg.Recorder),
		extmem.WithRetry(cfg.Retry),
	}
	if cfg.Speculate {
		opts = append(opts, extmem.WithSpeculation())
	}
	if cfg.ExecEvents != nil {
		opts = append(opts, extmem.WithExecEvents(cfg.ExecEvents))
	}

	t1 := time.Now()
	sp := cfg.Recorder.Start(obsv.StageList)
	er, runErr := extmem.Run(ctx, o, cfg.Parts, store, visit, opts...)
	sp.End()
	res = Result{
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

// Count returns the number of triangles in g using the configured method.
func Count(g *graph.Graph, cfg Config) (int64, error) {
	res, err := List(g, cfg, nil)
	if err != nil {
		return 0, err
	}
	return res.Triangles, nil
}

// PredictCost returns the analytical per-node cost prediction for running
// the spec on graphs with the given truncated degree distribution
// (eq. 50 / eq. 30). Multiply by n for total operations.
func PredictCost(m listing.Method, k order.Kind, dist degseq.Dist) (float64, error) {
	return model.DiscreteCost(model.Spec{Method: m, Order: k}, dist)
}

// PredictLimit returns the n → ∞ per-node cost for a Pareto degree law
// (Theorem 2), +Inf below the finiteness threshold.
func PredictLimit(m listing.Method, k order.Kind, p degseq.Pareto) (float64, error) {
	return model.Limit(model.Spec{Method: m, Order: k}, p)
}

// GlobalClustering returns the global clustering coefficient
// 3·triangles / open-wedges of g — the canonical triangle-listing
// application the paper's introduction motivates.
func GlobalClustering(g *graph.Graph) (float64, error) {
	tri, err := Count(g, Config{Method: listing.E1, Order: order.KindDescending})
	if err != nil {
		return 0, err
	}
	var wedges int64
	for v := 0; v < g.NumNodes(); v++ {
		d := int64(g.Degree(int32(v)))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0, nil
	}
	return 3 * float64(tri) / float64(wedges), nil
}

// LocalClustering returns each node's local clustering coefficient:
// triangles through v divided by C(deg(v), 2).
func LocalClustering(g *graph.Graph) ([]float64, error) {
	triAt := make([]int64, g.NumNodes())
	cfg := Config{Method: listing.E1, Order: order.KindDescending}
	o, err := Prepare(g, cfg)
	if err != nil {
		return nil, err
	}
	// Track labels back to original IDs.
	invRank := make([]int32, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		invRank[o.Rank(int32(v))] = int32(v)
	}
	listing.Run(o, cfg.Method, func(x, y, z int32) {
		triAt[invRank[x]]++
		triAt[invRank[y]]++
		triAt[invRank[z]]++
	})
	cc := make([]float64, g.NumNodes())
	for v := range cc {
		d := int64(g.Degree(int32(v)))
		if d >= 2 {
			cc[v] = float64(triAt[v]) / float64(d*(d-1)/2)
		}
	}
	return cc, nil
}
