// Command gengraph generates random graphs from the paper's stochastic
// model and writes them as text edge lists or TRCSRF binary CSR files.
//
// Usage:
//
//	gengraph -n 100000 -alpha 1.5 [-beta 15] [-trunc root] [-gen residual] \
//	         [-seed 1] [-format text] [-out graph.txt]
//
// Every flag is checked before generation starts, and -out is created
// only once the graph exists, so a rejected flag leaves no file behind.
//
// Generators: residual (the paper's §7.2 method, exact degrees),
// config (erased configuration model), chunglu (eq. 10 edge
// probabilities), er (Erdős–Rényi; uses -m), ba (Barabási–Albert
// preferential attachment; uses -k), ws (Watts–Strogatz small world;
// uses -k and -rewire).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	n := fs.Int("n", 100000, "number of nodes")
	alpha := fs.Float64("alpha", 1.5, "Pareto tail index α")
	beta := fs.Float64("beta", 0, "Pareto scale β (default 30(α-1))")
	trunc := fs.String("trunc", "root", "degree truncation: root (t_n=√n) or linear (t_n=n-1)")
	genName := fs.String("gen", "residual", "generator: residual, config, chunglu, er, ba, ws")
	m := fs.Int64("m", 0, "edge count for -gen er")
	k := fs.Int("k", 3, "attachment count (ba) or lattice half-degree (ws)")
	rewire := fs.Float64("rewire", 0.1, "rewiring probability for -gen ws")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	format := fs.String("format", "text", "output format: text (edge list) or csr (mmap-able TRCSRF)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("need -n >= 1")
	}
	var encode func(io.Writer, *graph.Graph) error
	switch strings.ToLower(*format) {
	case "text":
		encode = graph.WriteEdgeList
	case "csr":
		encode = csrfile.Write
	default:
		return fmt.Errorf("unknown format %q (want text or csr)", *format)
	}
	genKey := strings.ToLower(*genName)
	switch genKey {
	case "er", "ba", "ws", "residual", "config", "chunglu":
	default:
		return fmt.Errorf("unknown generator %q", *genName)
	}
	if genKey == "er" && *m <= 0 {
		return fmt.Errorf("-gen er requires -m > 0")
	}
	var rule degseq.Truncation
	switch strings.ToLower(*trunc) {
	case "root":
		rule = degseq.RootTruncation
	case "linear":
		rule = degseq.LinearTruncation
	default:
		return fmt.Errorf("unknown truncation %q", *trunc)
	}
	rng := stats.NewRNGFromSeed(*seed)
	// -out is created only once the graph exists: a generator error
	// leaves no file behind either.
	write := func(g *graph.Graph) error {
		if *out == "" {
			return encode(os.Stdout, g)
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := encode(f, g); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	switch genKey {
	case "er":
		g, err := gen.ErdosRenyi(*n, *m, rng)
		if err != nil {
			return err
		}
		return write(g)
	case "ba":
		g, err := gen.BarabasiAlbert(*n, *k, rng)
		if err != nil {
			return err
		}
		return write(g)
	case "ws":
		g, err := gen.WattsStrogatz(*n, *k, *rewire, rng)
		if err != nil {
			return err
		}
		return write(g)
	}

	if *beta == 0 {
		if *alpha <= 1 {
			return fmt.Errorf("default β = 30(α-1) requires α > 1; pass -beta explicitly")
		}
		*beta = 30 * (*alpha - 1)
	}
	p, err := degseq.NewPareto(*alpha, *beta)
	if err != nil {
		return err
	}
	tr, err := degseq.TruncateFor(p, rule, int64(*n))
	if err != nil {
		return err
	}
	d := degseq.Sample(tr, *n, rng)
	d.MakeEven()

	var g *graph.Graph
	var rep gen.Report
	switch genKey {
	case "residual":
		g, rep, err = gen.ResidualDegree(d, rng)
	case "config":
		g, rep, err = gen.ConfigurationModel(d, rng)
	case "chunglu":
		g, rep, err = gen.ChungLu(d, rng)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gengraph: n=%d m=%d deficit=%d (self-loops erased %d, duplicates %d)\n",
		g.NumNodes(), g.NumEdges(), rep.Deficit, rep.SelfLoopsErased, rep.DuplicatesErased)
	return write(g)
}
