// Command tristats summarizes a graph through the lens of the paper:
// degree statistics, degeneracy, triangle count and clustering
// coefficients (from one sweep), and optionally the method × order
// cost matrix (which order to use for which algorithm on THIS graph).
// The planner's pick for the graph is `trilist -plan`.
//
// Usage:
//
//	tristats -in graph.txt [-format auto] [-matrix] [-seed 1]
//
// Input (-in, or stdin) may be a MatrixMarket .mtx file, a SNAP-style
// edge list, or the mmap-able TRCSRF CSR format — auto-detected, or
// pinned with -format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"trilist/internal/core"
	"trilist/internal/experiments"
	"trilist/internal/ingest"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tristats:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tristats", flag.ContinueOnError)
	in := fs.String("in", "", "input graph file (default stdin)")
	formatName := fs.String("format", "auto", "input format: auto, mtx, snap, csr")
	matrix := fs.Bool("matrix", false, "print the 4-method × 6-order cost matrix (Table 12 layout)")
	seed := fs.Uint64("seed", 1, "seed for the uniform order column")
	workers := fs.Int("workers", 0, "goroutines for the cost matrix (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := ingest.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	ld, err := ingest.LoadFile(*in, format, ingest.Options{Workers: *workers})
	if err != nil {
		return err
	}
	defer ld.Close()
	g := ld.Graph
	fmt.Fprintf(w, "nodes     %d\n", g.NumNodes())
	fmt.Fprintf(w, "edges     %d\n", g.NumEdges())
	fmt.Fprintf(w, "mean deg  %.2f\n", g.MeanDegree())
	fmt.Fprintf(w, "max deg   %d\n", g.MaxDegree())
	fmt.Fprintf(w, "degeneracy %d\n", order.Degeneracy(g))
	_, comps := g.ConnectedComponents()
	fmt.Fprintf(w, "components %d\n", comps)

	tri, gc, local, err := core.Clustering(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "triangles %d\n", tri)
	fmt.Fprintf(w, "global clustering %.6f\n", gc)
	slices.Sort(local)
	if n := len(local); n > 0 {
		fmt.Fprintf(w, "local clustering  median %.6f  p90 %.6f\n",
			local[n/2], local[9*n/10])
	}

	if *matrix {
		m, err := experiments.MatrixForGraph(g, 0, stats.NewRNGFromSeed(*seed), *workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, m)
	}
	return nil
}
