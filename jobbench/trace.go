package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trilist/internal/digraph"
	"trilist/internal/exec"
	"trilist/internal/extmem"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/server"
)

// The traced run replays each op as direct calls into the layers' public
// functions, one span around each call, so every timing is taken from
// outside the layer it measures. Spans stay in memory until the run
// ends.

// span is one timed call. parent is the index of the enclosing span,
// -1 for a root; op numbers the replayed op the call belongs to.
type span struct {
	name       string
	op, parent int
	start, end time.Duration
}

// tracer collects spans; begin and end are safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
}

// opSpan names the root span of one replayed op. Its direct children run
// one after another and make up the job's blocking path; root spans with
// another name are side measurements outside the op.
const opSpan = "op"

// opTimes is one replayed op: each layer's self time (its span minus
// the part of it its child spans cover), summed per span name, and the
// op's wall time covered by its layer spans.
type opTimes struct {
	self    map[string]time.Duration
	covered time.Duration
}

// analyze folds the spans into per-op times. Every span must have ended.
func (t *tracer) analyze() []opTimes {
	children := make(map[int][]span)
	ops := 0
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		ops = max(ops, s.op+1)
	}
	out := make([]opTimes, ops)
	for i := range out {
		out[i].self = make(map[string]time.Duration)
	}
	for id, s := range t.spans {
		kids := children[id]
		covered := union(kids)
		out[s.op].self[s.name] += s.end - s.start - covered
		if s.name == opSpan && s.parent < 0 {
			out[s.op].covered = covered
		}
	}
	return out
}

// union is the length of the time covered by any of the spans.
func union(spans []span) time.Duration {
	spans = slices.Clone(spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total, lo, hi time.Duration
	open := false
	for _, s := range spans {
		switch {
		case !open:
			lo, hi, open = s.start, s.end, true
		case s.start > hi:
			total += hi - lo
			lo, hi = s.start, s.end
		case s.end > hi:
			hi = s.end
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// replayCounts are the exact meters and schedule counts of a replay.
// The exact meters are those of the first op, which runs on the
// workload's first graph, so they repeat exactly from run to run.
type replayCounts struct {
	ops                         int
	triangles, modelOps, comps  int64
	arcsRead                    int64
	passes, attempts, reissued  int64
	tripleBusy, partitionedWall time.Duration
	// opModelOps and opBytes hold each op's model ops and input size,
	// the bases of its per-op rates.
	opModelOps []int64
	opBytes    []int
}

// replayOp replays op i on its input.
func (b *bench) replayOp(tr *tracer, i int, rc *replayCounts) error {
	in := b.inputs[i%len(b.inputs)]
	var err error
	if b.w.spec.Parts > 0 {
		err = b.replayPartitioned(tr, i, in, rc)
	} else {
		err = b.replayInMemory(tr, i, in, rc)
	}
	if err != nil {
		return fmt.Errorf("replaying op %d: %w", i, err)
	}
	rc.ops++
	return nil
}

// timed runs f inside a span.
func timed(tr *tracer, name string, op, parent int, f func() error) error {
	id := tr.begin(name, op, parent)
	defer tr.end(id)
	return f()
}

// replayInMemory replays an in-memory op. A cold op first replays
// registration (hash, parse, plan) and the orientation the registry
// misses (rank, orient); every op then replays the sweep — up to the
// first page for a list job — and the result JSON.
func (b *bench) replayInMemory(tr *tracer, i int, in *input, rc *replayCounts) error {
	op := tr.begin(opSpan, i, -1)
	m, kind, o := in.method, in.kind, in.o
	if b.w.cold {
		var err error
		if m, kind, o, err = replayIngest(tr, i, op, b.w, in); err != nil {
			return err
		}
	}
	var seq [][3]int32
	var st listing.Stats
	if err := timed(tr, "listing.run", i, op, func() (err error) {
		if b.w.spec.Mode == "list" {
			seq, st, err = listLimited(o, m)
		} else {
			st, err = listing.RunCtx(context.Background(), o, m, nil)
		}
		return err
	}); err != nil {
		return err
	}
	view := server.JobView{
		ID: fmt.Sprintf("job-%d", i), Status: "done", Graph: in.id, Mode: b.w.spec.Mode,
		Method: m.String(), Order: kind.String(), Workers: b.w.spec.Workers, CacheHit: !b.w.cold,
		Triangles: st.Triangles, ModelOps: st.ModelOps(), TriangleList: seq,
	}
	if b.w.spec.Mode == "list" {
		view.Limit = listLimit
	}
	if err := timed(tr, "server.result_json", i, op, func() error { _, err := json.Marshal(view); return err }); err != nil {
		return err
	}
	tr.end(op)
	if m.Family() == listing.VertexIterator {
		// listing.run builds the arc hash set inside the call; this side
		// measurement of the same build splits it from the probes.
		_ = timed(tr, "digraph.arcset", i, -1, func() error { o.ArcSet(); return nil })
	}
	if st.Triangles != in.want.triangles || st.ModelOps() != in.want.modelOps || !slices.Equal(seq, in.want.seq) {
		return fmt.Errorf("replay found %d triangles, %d model ops; want %d, %d",
			st.Triangles, st.ModelOps(), in.want.triangles, in.want.modelOps)
	}
	if i == 0 {
		rc.triangles, rc.modelOps, rc.comps = st.Triangles, st.ModelOps(), st.Comparisons
	}
	rc.opModelOps = append(rc.opModelOps, st.ModelOps())
	rc.opBytes = append(rc.opBytes, len(in.body))
	return nil
}

// replayIngest replays a cold op's registration and orientation and
// returns the pair the job runs with the orientation it runs on.
func replayIngest(tr *tracer, i, op int, w workload, in *input) (listing.Method, order.Kind, *digraph.Oriented, error) {
	workers := runtime.GOMAXPROCS(0)
	_ = timed(tr, "server.register_hash", i, op, func() error { sha256.Sum256(in.body); return nil })
	var g *graph.Graph
	if err := timed(tr, "ingest.parse", i, op, func() (err error) {
		g, _, err = ingest.Parse(in.body, ingest.FormatAuto, ingest.Options{Workers: workers})
		return err
	}); err != nil {
		return 0, 0, nil, err
	}
	var p *planner.Plan
	if err := timed(tr, "planner.compute", i, op, func() (err error) {
		p, err = planner.Compute(g, planner.WithWorkers(workers))
		return err
	}); err != nil {
		return 0, 0, nil, err
	}
	m, kind := w.resolve(p)
	if m != in.method || kind != in.kind {
		return 0, 0, nil, fmt.Errorf("replayed plan %v/%v, want %v/%v", m, kind, in.method, in.kind)
	}
	var rank []int32
	if err := timed(tr, "order.rank", i, op, func() (err error) {
		rank, err = order.Rank(g, kind, nil, order.WithWorkers(workers))
		return err
	}); err != nil {
		return 0, 0, nil, err
	}
	var o *digraph.Oriented
	if err := timed(tr, "digraph.orient", i, op, func() (err error) {
		o, err = digraph.OrientOwned(g, rank, digraph.WithWorkers(workers))
		return err
	}); err != nil {
		return 0, 0, nil, err
	}
	return m, kind, o, nil
}

// replayPartitioned replays extmem.Run from its public pieces —
// Partition, then exec's scheduler over RunTriple with the job's
// workers and speculation — so each block-triple pass gets its own span.
func (b *bench) replayPartitioned(tr *tracer, i int, in *input, rc *replayCounts) error {
	parts := extmem.ClampParts(b.w.spec.Parts, in.o.NumNodes())
	workers := b.w.spec.Workers
	store := extmem.NewMemStore()
	defer store.Close()
	op := tr.begin(opSpan, i, -1)
	var res extmem.Result
	err := timed(tr, "extmem.partition", i, op, func() (err error) {
		res.IO.ArcsWritten, err = extmem.Partition(in.o, parts, store)
		return err
	})
	if err != nil {
		return err
	}
	triples := extmem.Triples(parts)
	var attempts, reissued atomic.Int64
	run := tr.begin("exec.run", i, op)
	err = exec.Run(context.Background(), len(triples),
		func(ctx context.Context, idx int) (extmem.TripleResult, error) {
			attempts.Add(1)
			id := tr.begin("extmem.triple", i, run)
			defer tr.end(id)
			t := triples[idx]
			return extmem.RunTriple(ctx, store, t[0], t[1], t[2])
		},
		func(_ int, r extmem.TripleResult) {
			res.Passes++
			res.Comparisons += r.Comparisons
			res.IO.ArcsRead += r.IO.ArcsRead
			res.IO.BlockReads += r.IO.BlockReads
			res.Triangles += int64(len(r.Triangles))
		},
		exec.Options{Workers: workers, Speculate: workers > 1, OnEvent: func(ev exec.Event) {
			if ev.Status == exec.StatusReissued {
				reissued.Add(1)
			}
		}})
	tr.end(run)
	if err != nil {
		return err
	}
	view := server.JobView{
		ID: fmt.Sprintf("job-%d", i), Status: "done", Graph: in.id, Mode: "count",
		Method: listing.E2.String(), Order: in.kind.String(), Workers: workers, CacheHit: true,
		Triangles: res.Triangles, Parts: parts, Passes: res.Passes, IO: &res.IO,
	}
	if err := timed(tr, "server.result_json", i, op, func() error { _, err := json.Marshal(view); return err }); err != nil {
		return err
	}
	tr.end(op)
	if res.Triangles != in.want.triangles || res.Passes != in.want.passes || res.IO != in.want.io || res.Comparisons != in.want.comparisons {
		return fmt.Errorf("replay found %+v, want triangles %d passes %d io %+v comparisons %d",
			res, in.want.triangles, in.want.passes, in.want.io, in.want.comparisons)
	}
	tr.mu.Lock()
	for _, sp := range tr.spans[op:] {
		switch sp.name {
		case "extmem.triple":
			rc.tripleBusy += sp.end - sp.start
		case "extmem.partition", "exec.run":
			rc.partitionedWall += sp.end - sp.start
		}
	}
	tr.mu.Unlock()
	if i == 0 {
		rc.triangles, rc.comps, rc.arcsRead = res.Triangles, res.Comparisons, res.IO.ArcsRead
	}
	rc.opModelOps = append(rc.opModelOps, 0)
	rc.opBytes = append(rc.opBytes, len(in.body))
	rc.passes += res.Passes
	rc.attempts += attempts.Load()
	rc.reissued += reissued.Load()
	return nil
}

// pickSlowdown times full sweeps of the planned pair and of E1/θ_D on
// the workload's first graph, alternating, and returns the ratio of
// their medians: how much slower the planner's pick is than E1.
func pickSlowdown(in *input, reps int) (float64, error) {
	best := in.plan.Best()
	planned, err := orientFor(in, best.Order)
	if err != nil {
		return 0, err
	}
	e1, err := orientFor(in, order.KindDescending)
	if err != nil {
		return 0, err
	}
	var pt, et []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		listing.Run(planned, best.Method, nil)
		pt = append(pt, float64(time.Since(t0)))
		t0 = time.Now()
		listing.Run(e1, listing.E1, nil)
		et = append(et, float64(time.Since(t0)))
	}
	return median(pt) / median(et), nil
}

func orientFor(in *input, k order.Kind) (*digraph.Oriented, error) {
	if k == in.kind {
		return in.o, nil
	}
	rank, err := order.Rank(in.g, k, nil)
	if err != nil {
		return nil, err
	}
	return digraph.OrientOwned(in.g, rank)
}
