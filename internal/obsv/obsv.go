// Package obsv is the pipeline's observability substrate: a
// dependency-free stage recorder that meters wall time and heap-alloc
// deltas for each step of the paper's orient→relabel→list framework
// (generate → rank → orient → list), with an injectable monotonic clock
// so benchmark harnesses and tests can make timings deterministic.
//
// The recorder is designed to be threaded through hot paths
// unconditionally: every method is safe on a nil *Recorder and the nil
// path performs zero allocations and no atomic or locked operations, so
// un-instrumented runs (the common case) pay nothing. A non-nil
// recorder aggregates spans per stage under one mutex — spans are
// opened and closed a handful of times per pipeline run, never per
// triangle, so contention is structurally impossible to matter.
//
//	rec := obsv.NewRecorder()
//	sp := rec.Start(obsv.StageRank)
//	rank, err := order.Rank(g, kind, rng)
//	sp.End()
//	... rec.Snapshot()[obsv.StageRank].Wall ...
package obsv

import (
	"fmt"
	"slices"
	"sync"
	"time"

	rtmetrics "runtime/metrics"
)

// Stage names one step of the listing pipeline. Stages are open-ended
// strings so future subsystems (partitioning passes, IO) can add their
// own without touching this package.
type Stage string

// The canonical pipeline stages, in execution order.
const (
	// StageParse covers real-graph ingestion: scanning MatrixMarket or
	// SNAP bytes into a validated edge list (internal/ingest).
	StageParse Stage = "parse"
	// StageBuild covers CSR construction from a parsed edge list
	// (dedupe, self-loop strip, adjacency sort).
	StageBuild Stage = "build"
	// StageGenerate covers workload synthesis: degree-sequence sampling
	// plus random-graph construction.
	StageGenerate Stage = "generate"
	// StageRank covers step 1 of the framework: computing the relabeling
	// permutation θ.
	StageRank Stage = "rank"
	// StageOrient covers step 2: building the relabeled, acyclically
	// oriented CSR.
	StageOrient Stage = "orient"
	// StageList covers step 3: the triangle sweep itself (including any
	// per-method hash build).
	StageList Stage = "list"
)

// PipelineStages lists the canonical stages in execution order, for
// deterministic rendering.
var PipelineStages = []Stage{StageParse, StageBuild, StageGenerate, StageRank, StageOrient, StageList}

// Clock is an injectable time source. The default is time.Now, whose
// readings carry Go's monotonic clock; tests and benchmark harnesses
// substitute a fake that advances deterministically.
type Clock func() time.Time

// AllocSampler returns a cumulative count of heap-allocated bytes. The
// default reads the runtime's /gc/heap/allocs:bytes metric; it is
// process-global, so alloc deltas of spans that overlap other
// goroutines' work are approximate — a coarse meter for "which stage
// allocates", not an exact attribution.
type AllocSampler func() uint64

func readHeapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// StageStats aggregates every closed span of one stage.
type StageStats struct {
	// Count is the number of closed spans.
	Count int64
	// Wall is the summed wall-clock duration.
	Wall time.Duration
	// Bytes is the summed heap-alloc delta (see AllocSampler for the
	// attribution caveat); zero when alloc sampling is disabled.
	Bytes int64
}

// Option configures a Recorder at construction.
type Option func(*Recorder)

// WithClock substitutes the time source.
func WithClock(c Clock) Option {
	return func(r *Recorder) { r.clock = c }
}

// WithAllocSampler substitutes the alloc meter; nil disables alloc
// sampling entirely (spans then cost two clock reads).
func WithAllocSampler(a AllocSampler) Option {
	return func(r *Recorder) { r.alloc = a; r.allocSet = true }
}

// Recorder aggregates stage spans. Safe for concurrent use; all methods
// are no-ops on a nil receiver.
type Recorder struct {
	clock    Clock
	alloc    AllocSampler
	allocSet bool

	mu    sync.Mutex
	stats map[Stage]*StageStats
}

// NewRecorder returns an empty recorder with the real clock and alloc
// sampler unless options substitute them.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{stats: make(map[Stage]*StageStats)}
	for _, o := range opts {
		o(r)
	}
	if r.clock == nil {
		r.clock = time.Now
	}
	if !r.allocSet {
		r.alloc = readHeapAllocBytes
	}
	return r
}

// Span is one open stage measurement. It is a value type: Start returns
// it on the caller's stack and End is idempotent, so the nil-recorder
// path allocates nothing.
type Span struct {
	r      *Recorder
	stage  Stage
	start  time.Time
	alloc0 uint64
	done   bool
}

// Start opens a span for stage s. On a nil recorder it returns an inert
// span whose End is a no-op, with zero allocations.
func (r *Recorder) Start(s Stage) Span {
	if r == nil {
		return Span{}
	}
	sp := Span{r: r, stage: s, start: r.clock()}
	if r.alloc != nil {
		sp.alloc0 = r.alloc()
	}
	return sp
}

// End closes the span and folds its wall/alloc deltas into the
// recorder. Calling End more than once (e.g. an explicit close followed
// by a deferred one on a cancellation path) records the span exactly
// once; End on an inert span is a no-op.
func (sp *Span) End() {
	if sp.r == nil || sp.done {
		return
	}
	sp.done = true
	var bytes int64
	if sp.r.alloc != nil {
		bytes = int64(sp.r.alloc() - sp.alloc0)
	}
	wall := sp.r.clock().Sub(sp.start)
	sp.r.mu.Lock()
	st := sp.r.stats[sp.stage]
	if st == nil {
		st = &StageStats{}
		sp.r.stats[sp.stage] = st
	}
	st.Count++
	st.Wall += wall
	st.Bytes += bytes
	sp.r.mu.Unlock()
}

// Snapshot returns a copy of the per-stage aggregates (nil on a nil
// recorder). Open spans are not included until they End.
func (r *Recorder) Snapshot() map[Stage]StageStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Stage]StageStats, len(r.stats))
	for s, st := range r.stats {
		out[s] = *st
	}
	return out
}

// Stages returns the recorded stages sorted canonically: pipeline
// stages first in execution order, then any custom stage names
// alphabetically — a deterministic iteration order for rendering.
func (r *Recorder) Stages() []Stage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rest := make([]Stage, 0, len(r.stats))
	var out []Stage
	for _, s := range PipelineStages {
		if _, ok := r.stats[s]; ok {
			out = append(out, s)
		}
	}
	for s := range r.stats {
		if !isPipelineStage(s) {
			rest = append(rest, s)
		}
	}
	slices.Sort(rest)
	return append(out, rest...)
}

func isPipelineStage(s Stage) bool {
	for _, p := range PipelineStages {
		if s == p {
			return true
		}
	}
	return false
}

// Format renders the snapshot as one aligned line per stage, in
// Stages() order — the CLI's -stages output.
func (r *Recorder) Format() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	var b []byte
	for _, s := range r.Stages() {
		st := snap[s]
		b = fmt.Appendf(b, "%-9s %3d span(s)  wall %-12v alloc %d B\n",
			s, st.Count, st.Wall, st.Bytes)
	}
	return string(b)
}
