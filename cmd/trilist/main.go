// Command trilist lists or counts triangles in an edge-list graph using
// any of the paper's 18 methods and 6 orders.
//
// Usage:
//
//	trilist -in graph.txt [-method auto] [-order auto] \
//	        [-plan] [-print] [-seed 1] [-workers 1] [-parts 1] \
//	        [-spill dir] [-timeout 0]
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
// omit it to report only the count and cost meters. Input may be a
// MatrixMarket .mtx file, a SNAP-style text edge list, the mmap-able
// TRCSRF CSR format, or the binary CSR stream — auto-detected, or
// pinned with -format (mtx, snap, csr, binary). TRCSRF files given via
// -in are memory-mapped rather than parsed; text formats parse
// chunk-parallel under -workers. -workers N parallelizes the sweep and
// the rank and orient stages (results are identical at any worker
// count); -parts P > 1 switches to the external-memory partitioned
// lister (ignoring -method), spilling blocks to -spill (or memory if
// unset). Partitioned runs schedule the P³/streamable block triples on
// a scatter/gather executor: -workers passes run concurrently (output
// stays byte-identical at any worker count, with straggler re-issue
// when workers > 1), and -retries N with -retry-backoff D re-runs a
// pass after transient spill-store failures. -timeout bounds the sweep
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
	"trilist/internal/extmem"
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
	formatName := fs.String("format", "auto", "input format: auto, mtx, snap, csr, binary")
	methodName := fs.String("method", "auto", "listing method: auto (planner-chosen) or T1-T6, E1-E6, L1-L6")
	orderName := fs.String("order", "auto", "order: auto, ascending, descending, round-robin, crr, uniform, degenerate")
	plan := fs.Bool("plan", false, "print the planner's ranked (method, order) cost table and exit without running")
	print := fs.Bool("print", false, "print each triangle (relabeled IDs x y z)")
	seed := fs.Uint64("seed", 1, "seed for the uniform order")
	workers := fs.Int("workers", 1, "parallel goroutines for prepare and the sweep (sweep needs a visitor-safe method)")
	parts := fs.Int("parts", 1, "external-memory partitions (>1 enables the partitioned lister)")
	spill := fs.String("spill", "", "spill directory for -parts (default: in-memory blocks)")
	retries := fs.Int("retries", 1, "attempts per block-triple pass under -parts (>1 retries transient store failures)")
	retryBackoff := fs.Duration("retry-backoff", 0, "base backoff between block-triple retry attempts (doubles per retry)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit)")
	stages := fs.Bool("stages", false, "print a per-stage wall-clock breakdown after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	methodAuto := *methodName == "" || strings.EqualFold(*methodName, "auto")
	var method listing.Method
	var err error
	if !methodAuto {
		if method, err = parseMethod(*methodName); err != nil {
			return err
		}
	}
	kind, orderAuto, err := parseOrder(*orderName)
	if err != nil {
		return err
	}
	format, err := ingest.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	var rec *obsv.Recorder
	if *stages {
		rec = obsv.NewRecorder()
	}
	iopts := ingest.Options{Workers: *workers, Recorder: rec}
	var g *graph.Graph
	if *in != "" {
		ld, err := ingest.LoadFile(*in, format, iopts)
		if err != nil {
			return err
		}
		defer ld.Close()
		g = ld.Graph
	} else {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		g, _, err = ingest.Parse(data, format, iopts)
		if err != nil {
			return err
		}
	}
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
		kind = core.Recommended(method)
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
	if *parts > 1 {
		pcfg := core.Config{
			Order:    kind,
			Seed:     *seed,
			Workers:  *workers,
			Recorder: rec,
			Parts:    *parts,
			SpillDir: *spill,
			Retry:    extmem.RetryPolicy{Attempts: *retries, Backoff: *retryBackoff},
			// Straggler re-issue only makes sense with idle workers to spare.
			Speculate: *workers > 1,
		}
		err := runPartitioned(ctx, g, pcfg, *timeout, visit, w)
		printStages(w, rec)
		return err
	}
	res, err := core.ListCtx(ctx, g, core.Config{Method: method, Order: kind, Seed: *seed, Workers: *workers,
		Recorder: rec}, visit)
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

// runPartitioned executes the external-memory lister through the core
// façade, which owns the block store lifecycle (spill files are removed
// on every exit path) and schedules the block triples on the
// scatter/gather executor with cfg.Workers passes in flight. ctx
// cancellation stops it between block triples.
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
	fmt.Fprintf(w, "# external-memory: parts=%d order=%v workers=%d\n", cfg.Parts, cfg.Order, cfg.Workers)
	fmt.Fprintf(w, "# triangles=%d\n", res.Triangles)
	fmt.Fprintf(w, "# passes=%d arcs-read=%d arcs-written=%d block-reads=%d\n",
		er.Passes, er.IO.ArcsRead, er.IO.ArcsWritten, er.IO.BlockReads)
	fmt.Fprintf(w, "# prep=%v list=%v\n", res.PrepTime, res.ListTime)
	return nil
}

func parseMethod(s string) (listing.Method, error) {
	for _, m := range listing.Methods {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (want auto or T1-T6, E1-E6, L1-L6)", s)
}

// parseOrder resolves an order name; auto reports "" or "auto", whose
// meaning depends on how the method resolved (planner's choice under
// -method auto, the paper-recommended order otherwise).
func parseOrder(s string) (kind order.Kind, auto bool, err error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return 0, true, nil
	case "ascending", "asc", "a":
		return order.KindAscending, false, nil
	case "descending", "desc", "d":
		return order.KindDescending, false, nil
	case "round-robin", "roundrobin", "rr":
		return order.KindRoundRobin, false, nil
	case "crr", "complementary-round-robin":
		return order.KindCRR, false, nil
	case "uniform", "random", "u":
		return order.KindUniform, false, nil
	case "degenerate", "degen", "smallest-last":
		return order.KindDegenerate, false, nil
	default:
		return 0, false, fmt.Errorf("unknown order %q", s)
	}
}
