// Command trilist lists or counts triangles in an edge-list graph using
// any of the paper's 18 methods and 6 orders.
//
// Usage:
//
//	trilist -in graph.txt [-method auto] [-order auto] \
//	        [-plan] [-print] [-seed 1] [-workers 1] [-parts 1] \
//	        [-timeout 0]
//
// -method auto (the default) plans the run: the empirical degree
// distribution is fitted from the graph and the (method, order) pair
// with the lowest predicted time (eq. (50) ops × the planner's
// per-family ns per op) is executed; an explicit -order
// constrains the choice to that order (any but degenerate, which the
// model cannot price from the distribution). -plan prints the full
// ranked prediction table and exits without sweeping — the explain
// mode. With an explicit method and -order auto, the paper-optimal
// order for the method is used (θ_D for T1/E1, RR for T2, CRR for
// E4, ...). -print emits each triangle as "x y z" in relabeled IDs;
// omit it to report only the count and cost meters. Input (-in, or
// stdin) may be a MatrixMarket .mtx file, a SNAP-style text edge list,
// or the mmap-able TRCSRF CSR format — auto-detected, or pinned with
// -format (mtx, snap, csr). TRCSRF files given via -in are
// memory-mapped rather than parsed; text formats parse
// chunk-parallel under -workers. -workers N also parallelizes the
// planner grid and the sweep; rank and orient are serial (results are
// identical at any worker count); -parts P > 1 switches to the partitioned lister, which
// splits the orientation into P label ranges held in memory. That
// lister runs the E2 block sweep, so -method must be auto or E2 there,
// and -order auto means θ_D. Partitioned runs schedule the block
// triples on a scatter/gather executor: -workers passes run
// concurrently (output stays byte-identical at any worker count, with
// straggler re-issue when workers > 1). -timeout bounds the sweep
// (including partitioned runs, cancelled between block triples); on
// expiry trilist exits non-zero after reporting the partial triangle
// count. -stages prints a per-stage wall-clock breakdown (rank, orient,
// list) after the run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"trilist/internal/core"
	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/listing"
	"trilist/internal/obsv"
	"trilist/internal/order"
	"trilist/internal/planner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trilist:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trilist", flag.ContinueOnError)
	in := fs.String("in", "", "input graph file (default stdin)")
	formatName := fs.String("format", "auto", "input format: auto, mtx, snap, csr")
	methodName := fs.String("method", "auto", "listing method: auto (planner-chosen) or T1-T6, E1-E6, L1-L6")
	orderName := fs.String("order", "auto", "order: auto, ascending, descending, round-robin, crr, uniform, degenerate")
	plan := fs.Bool("plan", false, "print the planner's ranked (method, order) cost table and exit without running")
	print := fs.Bool("print", false, "print each triangle (relabeled IDs x y z)")
	seed := fs.Uint64("seed", 1, "seed for the uniform order")
	workers := fs.Int("workers", 1, "parallel goroutines for parsing, planning and the sweep (sweep needs a visitor-safe method)")
	parts := fs.Int("parts", 1, "label-range partitions (>1 enables the partitioned lister)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit)")
	stages := fs.Bool("stages", false, "print a per-stage wall-clock breakdown after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// "" and "auto" leave the choice to the planner (method) or to the
	// resolved method (order).
	var (
		method listing.Method
		kind   order.Kind
		err    error
	)
	methodAuto := *methodName == "" || strings.EqualFold(*methodName, "auto")
	if !methodAuto {
		if method, err = listing.ParseMethod(*methodName); err != nil {
			return err
		}
	}
	orderAuto := *orderName == "" || strings.EqualFold(*orderName, "auto")
	if !orderAuto {
		if kind, err = order.ParseKind(*orderName); err != nil {
			return err
		}
	}
	format, err := ingest.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	partitioned := *parts > 1
	if partitioned && methodAuto {
		// The partitioned lister has one method; there is nothing to plan.
		method, methodAuto = listing.E2, false
	}
	var rec *obsv.Recorder
	if *stages {
		rec = obsv.NewRecorder()
	}
	iopts := ingest.Options{Workers: *workers, Recorder: rec}
	ld, err := ingest.LoadFile(*in, format, iopts)
	if err != nil {
		return err
	}
	defer ld.Close()
	g := ld.Graph
	w := bufio.NewWriter(out)
	defer w.Flush()
	if *plan {
		// Explain mode: price the grid, print the ranking, run nothing.
		p, err := planner.Compute(g, planner.WithWorkers(*workers))
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, p.Format())
		return err
	}
	fmt.Fprintf(w, "# graph: n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	if methodAuto {
		p, err := planner.Compute(g, planner.WithWorkers(*workers))
		if err != nil {
			return err
		}
		c := p.Best()
		if !orderAuto {
			var ok bool
			if c, ok = p.BestUnder(kind); !ok {
				return fmt.Errorf("-method auto cannot plan order %q: its cost is not predictable from the degree distribution; name a method explicitly", *orderName)
			}
		}
		method, kind = c.Method, c.Order
		fmt.Fprintf(w, "# planned: method=%v order=%v predicted-cost=%.6g predicted-ns=%.6g\n", method, kind, c.Total, c.PredictedNs)
	} else if orderAuto {
		kind = planner.RecommendedOrder(method)
	}
	var visit listing.Visitor
	if *print {
		visit = func(x, y, z int32) { fmt.Fprintf(w, "%d %d %d\n", x, y, z) }
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := core.Config{Method: method, Order: kind, Seed: *seed, Workers: *workers, Recorder: rec}
	if partitioned {
		cfg.Partition = &core.Partition{Parts: *parts}
		err := runPartitioned(ctx, g, cfg, *timeout, visit, w)
		printStages(w, rec)
		return err
	}
	res, err := core.ListCtx(ctx, g, cfg, visit)
	if errors.Is(err, context.DeadlineExceeded) {
		// Non-zero exit, but report how far the sweep got.
		printStages(w, rec)
		return fmt.Errorf("deadline exceeded after %v: %d triangles found before the sweep was cut short",
			*timeout, res.Triangles)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# method=%v order=%v\n", method, kind)
	fmt.Fprintf(w, "# triangles=%d\n", res.Triangles)
	fmt.Fprintf(w, "# model-ops=%d (per-node cost %.3f)\n",
		res.ModelOps(), float64(res.ModelOps())/float64(g.NumNodes()))
	fmt.Fprintf(w, "# max-out-degree=%d\n", res.MaxOutDeg)
	fmt.Fprintf(w, "# prep=%v list=%v\n", res.PrepTime, res.ListTime)
	printStages(w, rec)
	return nil
}

// printStages renders the -stages breakdown as comment lines.
func printStages(w io.Writer, rec *obsv.Recorder) {
	if rec == nil {
		return
	}
	fmt.Fprintf(w, "# stage breakdown:\n")
	for _, line := range strings.Split(strings.TrimRight(rec.Format(), "\n"), "\n") {
		fmt.Fprintf(w, "#   %s\n", line)
	}
}

// runPartitioned executes the partitioned lister through the core
// façade, which schedules the block triples on the scatter/gather
// executor with cfg.Workers passes in flight. ctx cancellation stops it
// between block triples.
func runPartitioned(ctx context.Context, g *graph.Graph, cfg core.Config,
	timeout time.Duration, visit listing.Visitor, w io.Writer) error {
	res, err := core.ListCtx(ctx, g, cfg, visit)
	if errors.Is(err, context.DeadlineExceeded) {
		var passes int64
		if res.Partitioned != nil {
			passes = res.Partitioned.Passes
		}
		return fmt.Errorf("deadline exceeded after %v: %d triangles found in %d passes before the run was cut short",
			timeout, res.Triangles, passes)
	}
	if err != nil {
		return err
	}
	er := res.Partitioned
	fmt.Fprintf(w, "# partitioned: parts=%d order=%v workers=%d\n", cfg.Partition.Parts, cfg.Order, cfg.Workers)
	fmt.Fprintf(w, "# triangles=%d\n", res.Triangles)
	fmt.Fprintf(w, "# passes=%d arcs-read=%d arcs-written=%d block-reads=%d\n",
		er.Passes, er.IO.ArcsRead, er.IO.ArcsWritten, er.IO.BlockReads)
	fmt.Fprintf(w, "# prep=%v list=%v\n", res.PrepTime, res.ListTime)
	return nil
}
