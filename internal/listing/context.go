package listing

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"trilist/internal/digraph"
	"trilist/internal/obsv"
)

// cancelBlock is the anchor granularity of a sweep: workers claim
// blocks of this many anchors and poll their context between blocks.
// Every method's outer loop ranges over an anchor corner of the
// triangle and the per-anchor work touches only read-only structures,
// so splitting the sweep into blocks leaves every meter in Stats
// bitwise identical to an unsplit run, at any worker count; the
// context check between blocks is the only extra work. 512 anchors
// keep the polling overhead unmeasurable while bounding cancellation
// latency to one block of inner-loop work.
const cancelBlock = 512

// Option configures a listing run (RunCtx, Run). Omitting all options
// gives a serial run with no telemetry.
type Option func(*runConfig)

type runConfig struct {
	rec     *obsv.Recorder
	workers int
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

// WithWorkers splits the sweep across n workers. n <= 1 (the default)
// runs serially on the caller's goroutine and starts no goroutine;
// n > 1 runs worker 0 on the caller's goroutine and n-1 more alongside
// it, and the visitor must then be safe for concurrent use. Triangles
// and every Stats meter are identical at any n; only the interleaving
// of visits differs.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n }
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
// SEI intersector or the LEI membership set, and for the methods that
// cut remote lists the arena's cursors — so parallel workers never
// share mutable state; release returns pooled scratch when the worker
// retires.
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
			it := &intersector{ar: getArena(n, m.cutsRemote()), mergeRef: mergeRef}
			return func(lo, hi int32, s *Stats) { runSEI(o, m, it, visit, s, lo, hi) }, it.release
		}, 0
	default:
		return func() (func(lo, hi int32, s *Stats), func()) {
			ar := getArena(n, m.cutsRemote())
			return func(lo, hi int32, s *Stats) { runLEI(o, m, ar, visit, s, lo, hi) }, func() { putArena(ar) }
		}, 0
	}
}

// RunCtx executes method m on the oriented graph o, invoking visit
// (which may be nil) once for every triangle, and returns the run's
// Stats. It is the package's one sweep: anchors are split into
// cancelBlock blocks, and worker w of WithWorkers(n) takes blocks
// w, w+n, w+2n, … so the heavy labels (which cluster at one end under
// θ_A/θ_D) spread across workers. A serial run visits triangles in the
// method's canonical order.
//
// Each worker polls ctx before claiming its next block. If ctx ends
// before every block has run, RunCtx returns the partial Stats of the
// blocks that did run together with ctx.Err(); every triangle counted
// there was delivered to the visitor exactly once. A sweep that covers
// every block returns nil, even if ctx ended during its last blocks.
// Options attach telemetry (WithRecorder) and workers (WithWorkers) and
// never change the triangles or Stats.
//
// Orientation makes anchors independent, so vertex and edge iterators
// parallelize embarrassingly; this is the scalability story of the
// parallel systems the paper cites (PATRIC [3], OPT [25],
// Shun–Tangwongsan [35]) applied to its unified framework.
func RunCtx(ctx context.Context, o *digraph.Oriented, m Method, visit Visitor, opts ...Option) (Stats, error) {
	cfg := applyOptions(opts)
	if err := ctx.Err(); err != nil {
		return Stats{Method: m}, err
	}
	sp := cfg.rec.Start(obsv.StageList)
	defer sp.End()
	newWorker, hashBuild := methodSweep(o, m, visit, &cfg)

	n := int32(o.NumNodes())
	numBlocks := (int(n) + cancelBlock - 1) / cancelBlock
	workers := max(1, min(cfg.workers, numBlocks))
	parts := make([]Stats, workers)
	done := ctx.Done()
	var cut atomic.Bool
	sweep := func(w int) {
		run, release := newWorker()
		defer release()
		for b := w; b < numBlocks; b += workers {
			select {
			case <-done:
				cut.Store(true)
				return
			default:
			}
			lo := int32(b * cancelBlock)
			run(lo, min(lo+cancelBlock, n), &parts[w])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sweep(w)
		}(w)
	}
	sweep(0)
	wg.Wait()

	total := Stats{Method: m, HashBuild: hashBuild}
	for _, p := range parts {
		total.Triangles += p.Triangles
		total.Candidates += p.Candidates
		total.LocalScan += p.LocalScan
		total.RemoteScan += p.RemoteScan
		total.Lookups += p.Lookups
		total.Comparisons += p.Comparisons
		total.HashBuild += p.HashBuild
	}
	if cut.Load() {
		return total, ctx.Err()
	}
	return total, nil
}
