package listing

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"trilist/internal/digraph"
	"trilist/internal/obsv"
)

// cancelBlock is the anchor granularity at which cancellable runs poll
// their context. Every method's outer loop ranges over an anchor corner
// of the triangle and the per-anchor work touches only read-only
// structures, so splitting the sweep into blocks leaves every meter in
// Stats bitwise identical to an unsplit run (the same property the
// parallel runner relies on); the context check between blocks is the
// only extra work. 512 anchors keep the polling overhead unmeasurable
// while bounding cancellation latency to one block of inner-loop work.
const cancelBlock = 512

// Option configures a listing run (Run, RunCtx, RunParallel,
// RunParallelCtx). Omitting all options reproduces the historical
// behavior exactly.
type Option func(*runConfig)

type runConfig struct {
	kernel     Kernel
	rec        *obsv.Recorder
	coreThresh int32
	bitBudget  int64
	tier       *TierStats
}

// WithKernel selects the intersection kernel for the run. The default
// is KernelMerge, the historical strategy; every kernel produces the
// same triangles in the same order and bitwise-identical Stats.
func WithKernel(k Kernel) Option {
	return func(c *runConfig) { c.kernel = k }
}

// WithRecorder attaches a stage recorder: the run opens one
// obsv.StageList span covering the whole sweep (hash build included),
// closed even when the context cancels it mid-flight. A nil recorder —
// the default — adds zero allocations and no measurable work, and a
// recorder never changes the triangles, their order, or any Stats
// meter.
func WithRecorder(r *obsv.Recorder) Option {
	return func(c *runConfig) { c.rec = r }
}

// WithCoreThreshold sets the core degree threshold τ for the
// bit-parallel kernels (KernelBits/KernelHybrid): a vertex is core —
// and carries a packed bit row — iff its remote-side degree is ≥ τ.
// τ ≤ 0 (the default) selects automatically: every non-isolated vertex
// is a candidate and the row-memory budget raises τ until the core
// fits. The threshold never changes triangles, order, or Stats — only
// which physical path answers each window.
func WithCoreThreshold(t int32) Option {
	return func(c *runConfig) { c.coreThresh = t }
}

// WithBitRowBudget caps the total bytes of packed core rows for the
// bit-parallel kernels; ≤ 0 (the default) means DefaultBitRowBudget.
// When the requested threshold would overflow the budget, the
// effective τ is raised (highest degrees keep their rows) and evicted
// vertices are served by the list fallback.
func WithBitRowBudget(bytes int64) Option {
	return func(c *runConfig) { c.bitBudget = bytes }
}

// WithTierStats attaches a TierStats sink: the run overwrites *ts with
// its core/fringe split before returning. Only SEI runs under
// KernelBits/KernelHybrid produce nonzero values; every other
// combination writes zeros, so a reused sink never carries stale
// numbers. The sink is written concurrently by workers during the run
// and must not be read until the run returns.
func WithTierStats(ts *TierStats) Option {
	return func(c *runConfig) { c.tier = ts }
}

func applyOptions(opts []Option) runConfig {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// methodSweep returns a per-worker sweep factory for m plus the number
// of global hash insertions paid up front (the vertex iterators build
// the arc set once; SEI and LEI build nothing global before the sweep).
// Each newWorker() call allocates that worker's private scratch — the
// SEI kernel engine or the LEI membership set — so parallel workers
// never share mutable state; release returns pooled scratch when the
// worker retires.
func methodSweep(o *digraph.Oriented, m Method, visit Visitor, cfg *runConfig) (newWorker func() (run func(lo, hi int32, s *Stats), release func()), hashBuild int64) {
	kern := cfg.kernel
	if m < 0 || m >= numMethods {
		panic(fmt.Sprintf("listing: unknown method %d", int(m)))
	}
	if kern < 0 || kern >= numKernels {
		panic(fmt.Sprintf("listing: unknown kernel %d", int(kern)))
	}
	if cfg.tier != nil {
		// Overwritten below when the run actually builds bit rows;
		// zeroed here so reused sinks never carry a prior run's split.
		*cfg.tier = TierStats{}
	}
	n := o.NumNodes()
	switch m.Family() {
	case VertexIterator:
		// Hash-table probes, no list intersection: the kernel choice is
		// a no-op for T1–T6.
		set := o.ArcSet()
		return func() (func(lo, hi int32, s *Stats), func()) {
			return func(lo, hi int32, s *Stats) { runVertex(o, m, set, visit, s, lo, hi) }, func() {}
		}, int64(set.Len())
	case ScanningEdgeIterator:
		var ba *bitAdj
		if kern == KernelBits || kern == KernelHybrid {
			budget := cfg.bitBudget
			if budget <= 0 {
				budget = DefaultBitRowBudget
			}
			ba = buildBitAdj(o, m, cfg.coreThresh, budget)
			if cfg.tier != nil {
				cfg.tier.Threshold = ba.thresh
				cfg.tier.CoreVertices = ba.core
				cfg.tier.RowBytes = ba.rowBytes
			}
		}
		tier := cfg.tier
		return func() (func(lo, hi int32, s *Stats), func()) {
			it := newIntersector(kern, n, ba)
			release := func() {
				if tier != nil {
					// Arena scratch is reported for every SEI kernel (the
					// aux-state a sweep pins beyond the CSR); the tier split
					// only exists when bit rows were built.
					atomic.AddInt64(&tier.ArenaBytes, it.arenaBytes())
					if ba != nil {
						atomic.AddInt64(&tier.CorePairs, it.corePairs)
						atomic.AddInt64(&tier.FringePairs, it.fringePairs)
					}
				}
				it.release()
			}
			return func(lo, hi int32, s *Stats) { runSEI(o, m, it, visit, s, lo, hi) }, release
		}, 0
	default:
		return func() (func(lo, hi int32, s *Stats), func()) {
			ar := getArena(n)
			return func(lo, hi int32, s *Stats) { runLEI(o, m, ar, visit, s, lo, hi) }, func() { putArena(ar) }
		}, 0
	}
}

// RunCtx is Run with cooperative cancellation: the sweep polls ctx every
// cancelBlock anchors and stops at the first checkpoint after ctx is
// done, returning the partial Stats accumulated so far together with
// ctx.Err(). An uncancelled run returns Stats bitwise identical to
// Run's and a nil error. Triangles reported before cancellation were
// delivered to the visitor exactly once; none are reported afterwards.
func RunCtx(ctx context.Context, o *digraph.Oriented, m Method, visit Visitor, opts ...Option) (Stats, error) {
	cfg := applyOptions(opts)
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	s := Stats{Method: m}
	if err := ctx.Err(); err != nil {
		return s, err
	}
	sp := cfg.rec.Start(obsv.StageList)
	defer sp.End()
	newWorker, hashBuild := methodSweep(o, m, visit, &cfg)
	s.HashBuild = hashBuild
	run, release := newWorker()
	defer release()
	n := int32(o.NumNodes())
	for lo := int32(0); lo < n; lo += cancelBlock {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		hi := lo + cancelBlock
		if hi > n {
			hi = n
		}
		run(lo, hi, &s)
	}
	return s, nil
}

// RunParallelCtx is RunParallel with cooperative cancellation: each
// worker polls ctx before claiming its next anchor block and stops once
// ctx is done. The merged partial Stats and ctx.Err() are returned; an
// uncancelled run returns exactly RunParallel's Stats and a nil error.
func RunParallelCtx(ctx context.Context, o *digraph.Oriented, m Method, workers int, visit Visitor, opts ...Option) (Stats, error) {
	cfg := applyOptions(opts)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := int32(o.NumNodes())
	if workers > int(n) {
		workers = int(n)
	}
	if workers <= 1 {
		return RunCtx(ctx, o, m, visit, opts...)
	}
	if visit == nil {
		visit = func(x, y, z int32) {}
	}
	if err := ctx.Err(); err != nil {
		return Stats{Method: m}, err
	}
	// The span opens here, not before the workers<=1 delegation above:
	// RunCtx opens its own on that path, so exactly one list span covers
	// any run.
	sp := cfg.rec.Start(obsv.StageList)
	defer sp.End()
	newWorker, hashBuild := methodSweep(o, m, visit, &cfg)

	// Interleaved blocks: worker w takes blocks w, w+workers, w+2·workers…
	// so the heavy labels (which cluster at one end under θ_A/θ_D) spread
	// across workers.
	numBlocks := (int(n) + cancelBlock - 1) / cancelBlock
	parts := make([]Stats, workers)
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run, release := newWorker()
			defer release()
			s := &parts[w]
			s.Method = m
			for b := w; b < numBlocks; b += workers {
				select {
				case <-done:
					return
				default:
				}
				lo := int32(b * cancelBlock)
				hi := lo + cancelBlock
				if hi > n {
					hi = n
				}
				run(lo, hi, s)
			}
		}(w)
	}
	wg.Wait()

	total := Stats{Method: m, HashBuild: hashBuild}
	for _, p := range parts {
		total.Triangles += p.Triangles
		total.Candidates += p.Candidates
		total.LocalScan += p.LocalScan
		total.RemoteScan += p.RemoteScan
		total.Lookups += p.Lookups
		total.Comparisons += p.Comparisons
		if m.Family() == LookupEdgeIterator {
			total.HashBuild += p.HashBuild
		}
	}
	return total, ctx.Err()
}
