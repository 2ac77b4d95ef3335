// Package extmem implements partitioned triangle listing over an
// in-memory orientation — the partitioning direction the paper's
// conclusion (§8) singles out ("design of better external-memory
// partitioning schemes, and modeling of I/O complexity in scenarios
// such as [17]") and its companion paper [17] studies in depth.
//
// The oriented, relabeled graph is split into P contiguous label ranges.
// Every directed arc y → x (y > x) lands in block (part(y), part(x)).
// Triangles x < y < z then live in a unique partition triple
// (part(x) <= part(y) <= part(z)), so one pass per non-decreasing triple
// (a, b, c) — reading blocks (b,a), (c,b), (c,a) — lists every triangle
// exactly once. Per-pass listing is the E2-style intersection of the
// paper's framework.
//
// Partitioning does not bound memory: Run takes a fully built
// *digraph.Oriented, and the blocks are a second copy of its arcs.
// What it provides is the block-triple schedule and its I/O meters.
//
// The O(P³) triple passes are independent, so Run schedules them on the
// internal/exec scatter/gather executor: WithWorkers(k) runs up to k
// passes concurrently, while results are committed in
// triple-lexicographic order on the calling goroutine — the triangle
// sequence, the visitor callsite, and every Result field are
// byte-identical at any worker count. Straggler re-issue
// (WithSpeculation) keeps that determinism: I/O meters come from the
// committed execution of each triple, never from losing copies.
//
// Blocks live behind the BlockStore interface. MemStore keeps them in
// memory and meters arc reads, so the I/O-vs-partition-count tradeoff
// (total reads grow with P) can be measured directly; tests wrap it to
// inject faults and stragglers.
package extmem

import (
	"context"
	"fmt"
	"slices"

	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/listing"
	"trilist/internal/obsv"
)

// StageTriple is the obsv stage recorded once per block-triple pass
// execution (wall clock of the three block reads plus the merge sweep).
const StageTriple obsv.Stage = "triple"

// Arc is a directed edge from the larger label Y to the smaller X.
type Arc struct {
	Y, X int32
}

// BlockStore persists arc blocks keyed by partition pair (i, j), i >= j.
//
// Concurrency contract: Run calls Append only from the calling
// goroutine (the partition pass), but calls Read from up to Workers
// goroutines concurrently — implementations must make Read safe for
// concurrent use, including concurrently with Stats. Close is never
// called by Run; callers close after Run returns, by which point all
// worker goroutines have exited.
type BlockStore interface {
	// Append adds arcs to block (i, j).
	Append(i, j int, arcs []Arc) error
	// Read returns all arcs of block (i, j), in a deterministic order
	// (append order), and accounts for the read in the store's meters.
	// Safe for concurrent use.
	Read(i, j int) ([]Arc, error)
	// Stats returns cumulative meters.
	Stats() IOStats
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// IOStats meters store traffic.
type IOStats struct {
	// ArcsWritten and ArcsRead count arc records through the store.
	ArcsWritten int64 `json:"arcs_written"`
	ArcsRead    int64 `json:"arcs_read"`
	// BlockReads counts Read calls (seeks, in disk terms).
	BlockReads int64 `json:"block_reads"`
}

// Result reports one external-memory run.
type Result struct {
	Triangles int64 `json:"triangles"`
	// Passes is the number of partition triples committed.
	Passes int64 `json:"passes"`
	// IO is the store traffic: the partitioning write pass plus the
	// reads of each committed triple execution. Speculative copies and
	// abandoned executions do not count — the meters describe
	// the deterministic logical schedule, not scheduling luck, so they
	// are identical at any worker count. (store.Stats() still meters
	// physical traffic including wasted executions.)
	IO IOStats `json:"io"`
	// Comparisons counts in-memory merge comparisons across all passes.
	Comparisons int64 `json:"comparisons"`
}

// Option configures Run.
type Option func(*runOptions)

type runOptions struct {
	workers   int
	speculate bool
	rec       *obsv.Recorder
	onEvent   func(exec.Event)
}

// WithWorkers sets the triple-pass pool size; values below 2 keep the
// serial path. Output is byte-identical at any worker count.
func WithWorkers(n int) Option { return func(o *runOptions) { o.workers = n } }

// WithSpeculation enables straggler re-issue: when the pool is
// otherwise idle, the longest-running triple pass is speculatively
// re-run (one extra copy); the first completion wins and triangles are
// still emitted exactly once.
func WithSpeculation() Option { return func(o *runOptions) { o.speculate = true } }

// WithRecorder records a StageTriple span per pass execution.
func WithRecorder(rec *obsv.Recorder) Option { return func(o *runOptions) { o.rec = rec } }

// WithExecEvents taps the executor's event stream (stragglers,
// duplicates, failures) — the hook trid uses to meter the schedule.
// The hook is called from worker goroutines and must be
// concurrency-safe.
func WithExecEvents(f func(exec.Event)) Option { return func(o *runOptions) { o.onEvent = f } }

// TripleResult is one pass's buffered output: everything needed to
// commit it deterministically later, in schedule order.
type TripleResult struct {
	Triangles   [][3]int32
	Comparisons int64
	IO          IOStats
}

// ClampParts returns the effective partition count for a graph of n
// nodes: parts, clamped to n when the graph is smaller than the
// requested split (a range narrower than one label is useless). Run
// applies this internally; a caller driving Triples and RunTriple
// itself applies it first so its schedule matches Run's exactly.
func ClampParts(parts, n int) int {
	if parts > n && n > 0 {
		return n
	}
	return parts
}

// Partition writes every arc of the oriented graph into its block:
// arc y → x lands in (part(y), part(x)) with part(v) = v·parts/n over
// contiguous label ranges. Appends are buffered per block and issued
// serially (BlockStore write paths need not be concurrency-safe).
// Returns the number of arcs written — the write half of Result.IO.
// parts must already be valid (≥ 1 and ≤ n; see ClampParts).
func Partition(o *digraph.Oriented, parts int, store BlockStore) (int64, error) {
	n := o.NumNodes()
	if n == 0 {
		return 0, nil
	}
	part := func(v int32) int { return int(int64(v) * int64(parts) / int64(n)) }
	var written int64
	buf := make(map[[2]int][]Arc)
	flush := func(key [2]int) error {
		if arcs := buf[key]; len(arcs) > 0 {
			if err := store.Append(key[0], key[1], arcs); err != nil {
				return err
			}
			written += int64(len(arcs))
			buf[key] = buf[key][:0]
		}
		return nil
	}
	for y := int32(0); int(y) < n; y++ {
		py := part(y)
		for _, x := range o.Out(y) {
			key := [2]int{py, part(x)}
			buf[key] = append(buf[key], Arc{Y: y, X: x})
			if len(buf[key]) >= 1<<12 {
				if err := flush(key); err != nil {
					return written, err
				}
			}
		}
	}
	for key := range buf {
		if err := flush(key); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Triples enumerates the non-decreasing partition triples (a, b, c) in
// lexicographic order — the protocol-fixed schedule and commit order
// of Run.
func Triples(parts int) [][3]int {
	triples := make([][3]int, 0, parts*(parts+1)*(parts+2)/6)
	for a := 0; a < parts; a++ {
		for b := a; b < parts; b++ {
			for c := b; c < parts; c++ {
				triples = append(triples, [3]int{a, b, c})
			}
		}
	}
	return triples
}

// Run lists all triangles of the oriented graph with P partitions,
// reporting each triangle once (global relabeled IDs, x < y < z) to
// visit, which may be nil. The store must be empty; Run writes the
// partition blocks itself. P = 1 degenerates to a single in-memory pass.
//
// visit is always called from Run's calling goroutine, in a fixed
// deterministic order (triple-lexicographic, then sweep order within a
// triple), regardless of WithWorkers — visitors need no locking.
//
// Cancellation is cooperative at block-read granularity inside a pass
// and commit granularity outside: on cancellation Run stops committing,
// waits for in-flight passes to wind down, and returns ctx.Err() with
// the Result holding the triangles and meters committed so far — each
// reported to visit exactly once.
//
// Run does not Close the store; callers own its lifecycle and can
// safely Close the moment Run returns (no worker goroutines outlive
// it), on success and error paths alike.
func Run(ctx context.Context, o *digraph.Oriented, parts int, store BlockStore, visit listing.Visitor, opts ...Option) (Result, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	var res Result
	if err := ctx.Err(); err != nil {
		return res, err
	}
	n := o.NumNodes()
	if parts < 1 {
		return res, fmt.Errorf("extmem: need at least one partition, got %d", parts)
	}
	if parts > n && n > 0 {
		parts = n
	}
	if n == 0 {
		return res, nil
	}
	if visit == nil {
		visit = func(x, y, z int32) {}
	}

	written, err := Partition(o, parts, store)
	res.IO.ArcsWritten = written
	if err != nil {
		return res, err
	}

	triples := Triples(parts)
	err = exec.Run(ctx, len(triples),
		func(tctx context.Context, idx int) (TripleResult, error) {
			tr := triples[idx]
			sp := ro.rec.Start(StageTriple)
			defer sp.End()
			return RunTriple(tctx, store, tr[0], tr[1], tr[2])
		},
		func(idx int, tr TripleResult) {
			res.Passes++
			res.Comparisons += tr.Comparisons
			res.IO.ArcsRead += tr.IO.ArcsRead
			res.IO.BlockReads += tr.IO.BlockReads
			for _, t := range tr.Triangles {
				res.Triangles++
				visit(t[0], t[1], t[2])
			}
		},
		exec.Options{Workers: ro.workers, Speculate: ro.speculate, OnEvent: ro.onEvent})
	if err != nil {
		return res, err
	}
	return res, nil
}

// adjacency groups arcs by one endpoint into sorted neighbor lists.
type adjacency map[int32][]int32

func groupByY(arcs []Arc) adjacency {
	m := make(adjacency)
	for _, a := range arcs {
		m[a.Y] = append(m[a.Y], a.X)
	}
	for _, l := range m {
		slices.Sort(l)
	}
	return m
}

// RunTriple lists the triangles whose corners fall in partitions
// (a, b, c): x ∈ a, y ∈ b, z ∈ c. Required blocks: y→x arcs in (b, a),
// z→y in (c, b), z→x in (c, a). For every arc z→y, the candidates x are
// the intersection of y's down-neighbors in (b,a) with z's
// down-neighbors in (c,a) — the E2 sweep of the paper restricted to the
// triple. Triangles are buffered, not emitted: the executor commits
// them in schedule order. ctx is checked between block reads, so a
// cancellation interrupts a pass within one block read. Exported, with
// Partition and Triples, so a caller can time the partition and
// per-triple layers of Run separately.
func RunTriple(ctx context.Context, store BlockStore, a, b, c int) (TripleResult, error) {
	var tr TripleResult
	read := func(i, j int) ([]Arc, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arcs, err := store.Read(i, j)
		if err != nil {
			return nil, err
		}
		tr.IO.BlockReads++
		tr.IO.ArcsRead += int64(len(arcs))
		return arcs, nil
	}
	eBA, err := read(b, a)
	if err != nil {
		return tr, err
	}
	if len(eBA) == 0 {
		return tr, nil
	}
	eCB, err := read(c, b)
	if err != nil {
		return tr, err
	}
	if len(eCB) == 0 {
		return tr, nil
	}
	eCA, err := read(c, a)
	if err != nil {
		return tr, err
	}
	if len(eCA) == 0 {
		return tr, nil
	}
	downBA := groupByY(eBA) // y -> {x} with x ∈ a
	downCA := groupByY(eCA) // z -> {x} with x ∈ a
	for _, arc := range eCB {
		z, y := arc.Y, arc.X
		ly := downBA[y]
		lz := downCA[z]
		if len(ly) == 0 || len(lz) == 0 {
			continue
		}
		i, j := 0, 0
		for i < len(ly) && j < len(lz) {
			tr.Comparisons++
			switch {
			case ly[i] < lz[j]:
				i++
			case ly[i] > lz[j]:
				j++
			default:
				x := ly[i]
				// Guard the degenerate same-partition triples: the
				// global ordering x < y < z must hold (it is automatic
				// across distinct partitions).
				if x < y && y < z {
					tr.Triangles = append(tr.Triangles, [3]int32{x, y, z})
				}
				i++
				j++
			}
		}
	}
	return tr, nil
}
