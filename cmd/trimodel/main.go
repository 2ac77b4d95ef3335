// Command trimodel evaluates the paper's analytical cost models: the
// exact discrete model (eq. 50), Algorithm 2, the continuous model
// (eq. 49), and the n → ∞ limit (Theorem 2), for any method × order ×
// Pareto(α, β) combination.
//
// Usage:
//
//	trimodel -method T1 -order descending -alpha 1.5 -n 1e7 \
//	         [-beta 15] [-trunc linear] [-eval all] [-eps 1e-5] [-workers N]
//
// With -eval all the independent evaluators run on up to -workers
// goroutines (default GOMAXPROCS); results always print in the same
// order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/model"
	"trilist/internal/order"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trimodel:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trimodel", flag.ContinueOnError)
	methodName := fs.String("method", "T1", "listing method: T1-T6, E1-E6, L1-L6")
	orderName := fs.String("order", "descending", "order: ascending, descending, round-robin, crr, uniform, or an alias such as asc or rr (degenerate has no model)")
	alpha := fs.Float64("alpha", 1.5, "Pareto tail index α")
	beta := fs.Float64("beta", 0, "Pareto scale β (default 30(α-1))")
	nFlag := fs.Float64("n", 1e6, "graph size n (t_n follows -trunc)")
	trunc := fs.String("trunc", "linear", "truncation: root or linear")
	eval := fs.String("eval", "all", "evaluator: discrete, quick, continuous, limit, all")
	eps := fs.Float64("eps", 1e-5, "Algorithm 2 block-growth ε")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines evaluating independent models; output order is fixed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	method, err := listing.ParseMethod(*methodName)
	if err != nil {
		return err
	}
	kind, err := order.ParseKind(*orderName)
	if err != nil {
		return err
	}
	if kind == order.KindDegenerate {
		// Its labels depend on the edges, not only on the degrees.
		return fmt.Errorf("order %q has no model: the cost model prices orders from the degree distribution alone", *orderName)
	}
	if *beta == 0 {
		if *alpha <= 1 {
			return fmt.Errorf("default β = 30(α-1) requires α > 1; pass -beta")
		}
		*beta = 30 * (*alpha - 1)
	}
	p, err := degseq.NewPareto(*alpha, *beta)
	if err != nil {
		return err
	}
	var tn float64
	switch strings.ToLower(*trunc) {
	case "root":
		tn = float64(degseq.RootTruncation.Tn(int64(*nFlag)))
	case "linear":
		tn = *nFlag - 1
	default:
		return fmt.Errorf("unknown truncation %q", *trunc)
	}
	spec := model.Spec{Method: method, Order: kind}
	fmt.Fprintf(w, "spec: %v, Pareto(α=%v, β=%v), t_n=%g (%s truncation)\n",
		spec, *alpha, *beta, tn, strings.ToLower(*trunc))

	want := strings.ToLower(*eval)
	// Evaluators are independent, so they run concurrently (bounded by
	// -workers) and print in declaration order once all are done.
	type task struct {
		name string
		pre  string // extra line printed before the result
		skip string // printed instead of running, when non-empty
		f    func() (float64, error)
	}
	var tasks []task
	if want == "discrete" || want == "all" {
		if tn > 1e9 {
			tasks = append(tasks, task{skip: "discrete:    skipped (t_n > 1e9; use -eval quick)"})
		} else {
			tr, err := degseq.NewTruncated(p, int64(tn))
			if err != nil {
				return err
			}
			tasks = append(tasks, task{name: "discrete",
				f: func() (float64, error) { return model.DiscreteCost(spec, tr) }})
		}
	}
	if want == "quick" || want == "all" {
		tasks = append(tasks, task{name: "quick", f: func() (float64, error) {
			return model.QuickCost(spec, model.ParetoTruncatedCDF(p, tn), tn, *eps)
		}})
	}
	if want == "continuous" || want == "all" {
		tasks = append(tasks, task{name: "continuous", f: func() (float64, error) {
			return model.ContinuousCost(spec, p, tn, 200000)
		}})
	}
	if want == "limit" || want == "all" {
		crit, err := model.FinitenessAlpha(spec)
		if err != nil {
			return err
		}
		tasks = append(tasks, task{name: "limit",
			pre: fmt.Sprintf("finite limit iff α > %.4g", crit),
			f:   func() (float64, error) { return model.Limit(spec, p) }})
	}

	type result struct {
		v   float64
		dur time.Duration
		err error
	}
	results := make([]result, len(tasks))
	sem := make(chan struct{}, max(1, *workers))
	var wg sync.WaitGroup
	for i, tk := range tasks {
		if tk.f == nil {
			continue
		}
		wg.Add(1)
		go func(i int, tk task) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t0 := time.Now()
			v, err := tk.f()
			results[i] = result{v, time.Since(t0), err}
		}(i, tk)
	}
	wg.Wait()

	for i, tk := range tasks {
		if tk.skip != "" {
			fmt.Fprintln(w, tk.skip)
			continue
		}
		if tk.pre != "" {
			fmt.Fprintln(w, tk.pre)
		}
		r := results[i]
		if r.err != nil {
			return fmt.Errorf("%s: %w", tk.name, r.err)
		}
		fmt.Fprintf(w, "%-12s %14.4f   (%v)\n", tk.name, r.v, r.dur.Round(time.Microsecond))
	}
	return nil
}
