package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"trilist/internal/core"
	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/extmem"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/server"
	"trilist/internal/stats"
)

// alpha is the Pareto tail index of the paper's §7 simulations.
const alpha = 1.5

// workload is one traffic mix: the graphs it generates and the job
// every op submits. Sizes are chosen so that one op takes roughly
// 25-45 ms on a 2-core host, which gives a 20 s run the 100+ timed ops
// a p90 needs several times over.
type workload struct {
	name  string
	trunc degseq.Truncation
	nodes int
	// graphs is the number of distinct graphs; cold ops cycle through
	// them so that every registration misses the registry.
	graphs int
	// cold ops register their graph first; warm ops use a graph the
	// set-up registered.
	cold bool
	spec server.JobSpec
}

var workloads = []workload{
	{
		// The default request on a resident graph: the planner resolves
		// method=auto to T1/θ_D, so the per-job arc hash set and its
		// probes do almost all the work.
		name: "warm-auto", trunc: degseq.LinearTruncation, nodes: 10000, graphs: 1,
		spec: server.JobSpec{Method: "auto", Mode: "count", Workers: 1},
	},
	{
		// Registration plus first page: sha256, parse, plan, rank,
		// orient and the arc-set build; the sweep stops at the default
		// limit of 1000 triangles.
		name: "cold-ingest", trunc: degseq.RootTruncation, nodes: 10000, graphs: 3, cold: true,
		spec: server.JobSpec{Method: "auto", Mode: "list", Workers: 1},
	},
	{
		// The external-memory path: 4 parts give 20 block-triple passes
		// on exec's 2-worker scheduler with speculation.
		name: "partitioned", trunc: degseq.RootTruncation, nodes: 10000, graphs: 1,
		spec: server.JobSpec{Parts: 4, Workers: 2},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// listLimit is trid's default limit, which cold-ingest's list jobs
// leave unset.
const listLimit = 1000

// input is one generated graph with the answers every op on it must
// reproduce, all computed in the benchmark's own process.
type input struct {
	g    *graph.Graph
	body []byte // SNAP edge list, as registered
	id   string // registry id trid derives from body
	// triangles is Latapy's compact-forward count, independent of the
	// listing package trid runs.
	triangles int64
	plan      *planner.Plan
	method    listing.Method
	kind      order.Kind
	o         *digraph.Oriented // orientation for kind
	want      answer
}

// answer is what a correct job reports.
type answer struct {
	triangles int64      // JobView.triangles (a partial count on truncated lists)
	modelOps  int64      // JobView.model_ops (in-memory jobs)
	seq       [][3]int32 // list jobs: the exact recorded triangles
	// Partitioned jobs: the serial extmem.Run meters.
	passes      int64
	io          extmem.IOStats
	comparisons int64
}

// graphSeed keeps every (seed, graph index) pair distinct.
func graphSeed(seed uint64, k int) uint64 { return seed*16 + uint64(k) }

// paretoGraph draws a graph of the paper's §7 family. The degree
// sequence is a stratified sample of the truncated StandardPareto(α)
// law — one uniform draw inside each of n equal quantile strata, then
// shuffled — and is realised by the paper's residual-degree generator.
// Plain iid sampling lets the few largest degrees of a linearly
// truncated α = 1.5 law move a T1 sweep's work by ±10% from one seed to
// the next; stratifying keeps the law and the randomness of the wiring
// but holds that spread near 1%.
func paretoGraph(n int, rule degseq.Truncation, seed uint64) (*graph.Graph, error) {
	tr, err := degseq.TruncateFor(degseq.StandardPareto(alpha), rule, int64(n))
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNGFromSeed(seed)
	d := make(degseq.Sequence, n)
	for i := range d {
		d[i] = tr.Quantile((float64(i) + rng.OpenFloat64()) / float64(n))
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		d[i], d[j] = d[j], d[i]
	}
	d.MakeEven()
	g, _, err := gen.ResidualDegree(d, rng)
	return g, err
}

// resolve returns the (method, order) pair trid runs for the
// workload's job on a graph with plan p: partitioned jobs run the E2
// block merge under θ_D, method=auto jobs the plan's best pair.
func (w workload) resolve(p *planner.Plan) (listing.Method, order.Kind) {
	if w.spec.Parts > 0 {
		return listing.E2, order.KindDescending
	}
	c := p.Best()
	return c.Method, c.Order
}

// makeInput generates graph k of the workload and computes its oracle
// answers. It fails when trid's own listing code disagrees with the
// compact-forward count, since no op could then be checked.
func makeInput(w workload, nodes int, seed uint64, k int) (*input, error) {
	g, err := paretoGraph(nodes, w.trunc, graphSeed(seed, k))
	if err != nil {
		return nil, fmt.Errorf("generating graph %d: %w", k, err)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	in := &input{g: g, body: buf.Bytes(), id: "sha256:" + hex.EncodeToString(sum[:])}
	in.triangles = listing.CompactForward(g, nil).Triangles
	if in.plan, err = planner.Compute(g, planner.WithWorkers(runtime.GOMAXPROCS(0))); err != nil {
		return nil, err
	}
	in.method, in.kind = w.resolve(in.plan)
	if in.o, err = core.Prepare(g, core.Config{Order: in.kind}); err != nil {
		return nil, err
	}
	if w.spec.Parts > 0 {
		er, err := extmem.Run(context.Background(), in.o, w.spec.Parts, extmem.NewMemStore(), nil)
		if err != nil {
			return nil, err
		}
		in.want = answer{triangles: er.Triangles, passes: er.Passes, io: er.IO, comparisons: er.Comparisons}
		return in, in.selfCheck(er.Triangles)
	}
	if w.spec.Mode != "list" {
		st := listing.Run(in.o, in.method, nil)
		in.want = answer{triangles: st.Triangles, modelOps: st.ModelOps()}
		return in, in.selfCheck(st.Triangles)
	}
	seq, st, err := listLimited(in.o, in.method)
	if err != nil {
		return nil, err
	}
	in.want = answer{triangles: st.Triangles, modelOps: st.ModelOps(), seq: seq}
	return in, in.selfCheck(listing.Run(in.o, in.method, nil).Triangles)
}

func (in *input) selfCheck(got int64) error {
	if got != in.triangles {
		return fmt.Errorf("oracle: %v/%v lists %d triangles, compact-forward counts %d",
			in.method, in.kind, got, in.triangles)
	}
	return nil
}

// listLimited runs a serial sweep the way a trid list job does: the
// visitor records up to listLimit triangles and cancels the sweep once the
// quota fills, so the returned Stats are the same partial meters the
// job reports.
func listLimited(o *digraph.Oriented, m listing.Method) ([][3]int32, listing.Stats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seq [][3]int32
	st, err := listing.RunCtx(ctx, o, m, func(x, y, z int32) {
		if len(seq) < listLimit {
			seq = append(seq, [3]int32{x, y, z})
			if len(seq) == listLimit {
				cancel()
			}
		}
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, st, err
	}
	return seq, st, nil
}

// check compares a finished job with the oracle.
func (in *input) check(w workload, v *server.JobView) error {
	if v.Status != "done" {
		return fmt.Errorf("job %s: status %s %s", v.ID, v.Status, v.Error)
	}
	if v.Method != in.method.String() || v.Order != in.kind.String() {
		return fmt.Errorf("job %s ran %s/%s, want %v/%v", v.ID, v.Method, v.Order, in.method, in.kind)
	}
	if v.Triangles != in.want.triangles {
		return fmt.Errorf("job %s: %d triangles, want %d", v.ID, v.Triangles, in.want.triangles)
	}
	if w.spec.Parts > 0 {
		if v.Passes != in.want.passes || v.IO == nil || *v.IO != in.want.io {
			return fmt.Errorf("job %s: passes %d io %+v, want %d %+v", v.ID, v.Passes, v.IO, in.want.passes, in.want.io)
		}
		return nil
	}
	if v.ModelOps != in.want.modelOps {
		return fmt.Errorf("job %s: model_ops %d, want %d", v.ID, v.ModelOps, in.want.modelOps)
	}
	if !slices.Equal(v.TriangleList, in.want.seq) {
		return fmt.Errorf("job %s: triangle list differs from the %v/%v sequence", v.ID, in.method, in.kind)
	}
	return nil
}
