package listing

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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
	rec *obsv.Recorder
	// mergeRef makes SEI sweeps merge-scan every window instead of
	// taking the adaptive path. Only tests set it, to compare the two.
	mergeRef bool
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
// SEI intersector or the LEI membership set — so parallel workers
// never share mutable state; release returns pooled scratch when the
// worker retires.
func methodSweep(o *digraph.Oriented, m Method, visit Visitor, cfg *runConfig) (newWorker func() (run func(lo, hi int32, s *Stats), release func()), hashBuild int64) {
	if m < 0 || m >= numMethods {
		panic(fmt.Sprintf("listing: unknown method %d", int(m)))
	}
	n := o.NumNodes()
	switch m.Family() {
	case VertexIterator:
		// Hash-table probes, no list intersection.
		set := o.ArcSet()
		return func() (func(lo, hi int32, s *Stats), func()) {
			return func(lo, hi int32, s *Stats) { runVertex(o, m, set, visit, s, lo, hi) }, func() {}
		}, int64(set.Len())
	case ScanningEdgeIterator:
		mergeRef := cfg.mergeRef
		return func() (func(lo, hi int32, s *Stats), func()) {
			it := newIntersector(n, mergeRef)
			return func(lo, hi int32, s *Stats) { runSEI(o, m, it, visit, s, lo, hi) }, it.release
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
