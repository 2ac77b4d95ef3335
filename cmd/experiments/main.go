// Command experiments regenerates the paper's evaluation tables
// (3, 5, 6, 7, 8, 9, 10, 11, 12) at a configurable scale.
//
// Usage:
//
//	experiments [-table all] [-scale default|paper] \
//	            [-sizes 10000,30000,100000] [-seqs 4] [-graphs 4] \
//	            [-surrogate 200000] [-seed 20170514] [-workers N]
//
// The default scale runs every table in minutes on a laptop while
// preserving all qualitative conclusions; -scale paper reproduces the
// paper's full protocol (hours). -workers parallelizes the Monte-Carlo
// trials (default GOMAXPROCS); table output is byte-identical for every
// worker count. -table planner (predicted-vs-measured plan validation)
// is opt-in and not part of -table all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"trilist/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	table := fs.String("table", "all", "table to regenerate: 3, 5, 6, 7, 8, 9, 10, 11, 12, scaling, planner, or all")
	scale := fs.String("scale", "default", "protocol scale: default or paper")
	sizes := fs.String("sizes", "", "comma-separated graph sizes (overrides scale)")
	seqs := fs.Int("seqs", 0, "degree sequences per point (overrides scale)")
	graphs := fs.Int("graphs", 0, "graphs per sequence (overrides scale)")
	surrogate := fs.Int("surrogate", 0, "Table 12 surrogate size (overrides scale)")
	seed := fs.Uint64("seed", 0, "root seed (overrides scale)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines running Monte-Carlo trials and plan pricing; output is identical for any value")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	tableN := fs.Int("n", 0, "graph size for -table planner (0 = table default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cfg experiments.Config
	switch *scale {
	case "default":
		cfg = experiments.DefaultConfig()
	case "paper":
		cfg = experiments.PaperConfig()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *sizes != "" {
		cfg.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad size %q: %v", s, err)
			}
			cfg.Sizes = append(cfg.Sizes, v)
		}
	}
	if *seqs > 0 {
		cfg.Seqs = *seqs
	}
	if *graphs > 0 {
		cfg.Graphs = *graphs
	}
	if *surrogate > 0 {
		cfg.SurrogateN = *surrogate
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers

	wantAll := *table == "all"
	want := func(id string) bool { return wantAll || *table == id }
	ran := false

	writeCSV := func(name string, emit func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return emit(f)
	}

	if want("3") {
		ran = true
		res, err := experiments.Table3(1<<16, 300*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		if err := writeCSV("table3.csv", func(f io.Writer) error {
			return experiments.WriteTable3CSV(f, res)
		}); err != nil {
			return err
		}
	}
	if want("5") {
		ran = true
		rows, err := experiments.Table5(nil, 0)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatTable5(rows))
		if err := writeCSV("table5.csv", func(f io.Writer) error {
			return experiments.WriteTable5CSV(f, rows)
		}); err != nil {
			return err
		}
	}
	type pairTable struct {
		id  string
		run func(experiments.Config) (*experiments.PairTable, error)
	}
	for _, pt := range []pairTable{
		{"6", experiments.Table6},
		{"7", experiments.Table7},
		{"8", experiments.Table8},
		{"9", experiments.Table9},
		{"10", experiments.Table10},
	} {
		if !want(pt.id) {
			continue
		}
		ran = true
		t0 := time.Now()
		tab, err := pt.run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab)
		fmt.Fprintf(w, "(computed in %v)\n\n", time.Since(t0).Round(time.Millisecond))
		if err := writeCSV("table"+pt.id+".csv", tab.WriteCSV); err != nil {
			return err
		}
	}
	if want("11") {
		ran = true
		t0 := time.Now()
		rows, err := experiments.Table11(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatTable11(rows))
		fmt.Fprintf(w, "(computed in %v)\n\n", time.Since(t0).Round(time.Millisecond))
		if err := writeCSV("table11.csv", func(f io.Writer) error {
			return experiments.WriteTable11CSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if want("12") {
		ran = true
		t0 := time.Now()
		res, err := experiments.Table12(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res)
		if problems := res.CheckPaperClaims(); len(problems) > 0 {
			fmt.Fprintln(w, "WARNING: paper claims violated on this instance:")
			for _, p := range problems {
				fmt.Fprintln(w, "  -", p)
			}
		} else {
			fmt.Fprintln(w, "all Table 12 qualitative claims hold on the surrogate")
		}
		fmt.Fprintf(w, "(computed in %v)\n", time.Since(t0).Round(time.Millisecond))
		if err := writeCSV("table12.csv", res.WriteCSV); err != nil {
			return err
		}
	}
	if want("scaling") {
		ran = true
		// §6.3 divergence-rate study (no paper table; extension).
		rows, err := experiments.Scaling(1.2, nil, *workers)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatScaling(1.2, rows))
		if err := writeCSV("scaling.csv", func(f io.Writer) error {
			return experiments.WriteScalingCSV(f, rows)
		}); err != nil {
			return err
		}
	}
	if *table == "planner" {
		// Predicted-vs-measured planner validation; opt-in only (not part
		// of "all", which stays purely analytical).
		// Every number is deterministic given the seed: the default
		// workload is pinned by the internal/experiments golden.
		ran = true
		ncfg := experiments.PlannerConfig{N: *tableN, Seed: cfg.Seed, Workers: *workers}
		t0 := time.Now()
		tab, err := experiments.TablePlanner(ncfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.FormatPlanner(tab))
		fmt.Fprintf(w, "(computed in %v)\n", time.Since(t0).Round(time.Millisecond))
		if err := writeCSV("planner.csv", func(f io.Writer) error {
			return experiments.WritePlannerCSV(f, tab)
		}); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}
