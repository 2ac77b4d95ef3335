package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/planner"
	"trilist/internal/stats"
)

// This file is the kernel ablation: wall-clock speed of the
// neighbor-intersection kernels (merge / gallop / bitmap / auto / bits /
// hybrid) on the paper's workload. The paper's model prices every SEI
// method in list elements scanned and is deliberately kernel-agnostic;
// this experiment quantifies the constant-factor freedom the model
// leaves open. Every kernel must return the same triangle count and the
// same model cost — TableKernels cross-checks both and fails loudly
// otherwise, so the benchmark doubles as an end-to-end differential
// test on graphs far larger than the fuzz corpus. The bit-parallel
// kernels run at the planner's priced core threshold, recorded per row,
// so the published numbers are the ones a kernel=auto job would see.

// KernelRow is one (truncation, method, kernel) measurement.
type KernelRow struct {
	Trunc     degseq.Truncation
	Method    listing.Method
	Kernel    listing.Kernel
	Triangles int64
	ModelOps  int64
	// CoreThreshold is the planner-chosen τ the bit-parallel kernels ran
	// with (0 on pure list kernels, which have no core tier).
	CoreThreshold int32
	// BestMS is the fastest of the measured repetitions (the standard
	// microbenchmark estimator: minimum filters scheduler noise).
	BestMS float64
	// Speedup is merge BestMS / this kernel's BestMS on the same
	// (truncation, method) sweep; 1.0 for merge itself.
	Speedup float64
}

// KernelConfig parameterizes TableKernels.
type KernelConfig struct {
	// N is the graph size. Default 60000.
	N int
	// Alpha is the Pareto shape. Default 1.5, the paper's main case.
	Alpha float64
	// Seed feeds graph generation; the graphs are deterministic per seed.
	Seed uint64
	// Reps is the number of timed repetitions per cell. Default 3.
	Reps int
	// Kernels to measure; defaults to all six. Merge is always
	// included (it is the speedup baseline).
	Kernels []listing.Kernel
	// Methods to sweep; defaults to E1 and E2, the two SEI shapes whose
	// optimal orders the paper recommends (θ_D for both, Corollary 2).
	Methods []listing.Method
}

func (c KernelConfig) withDefaults() KernelConfig {
	if c.N <= 0 {
		c.N = 60000
	}
	if c.Alpha == 0 {
		c.Alpha = 1.5
	}
	if c.Seed == 0 {
		c.Seed = 20170514
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if len(c.Kernels) == 0 {
		c.Kernels = listing.Kernels
	}
	if len(c.Methods) == 0 {
		c.Methods = []listing.Method{listing.E1, listing.E2}
	}
	return c
}

// TableKernels times every configured kernel on root- and
// linear-truncated Pareto graphs, orienting by θ_D (the recommended
// order for E1/E2). Rows come grouped by truncation then method,
// kernels in the configured order; the run errors if any kernel
// disagrees with the merge baseline on triangles or model cost. The
// bit-parallel kernels run at the core threshold the planner prices
// for each truncation's fitted degree distribution, so the table
// reports exactly the configuration kernel=auto resolves to.
func TableKernels(cfg KernelConfig) ([]KernelRow, error) {
	cfg = cfg.withDefaults()
	p := degseq.StandardPareto(cfg.Alpha)
	var rows []KernelRow
	for ti, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		g, _, err := gen.ParetoGraph(p, cfg.N, trunc, stats.NewRNGFromSeed(cfg.Seed+uint64(ti)))
		if err != nil {
			return nil, err
		}
		// The planner's τ for this workload: the threshold a kernel=auto
		// job on this graph's fitted distribution would hand the bit tier.
		// τ is budget-derived and deterministic; only the kernel *choice*
		// depends on the host calibration, and the table sweeps every
		// kernel anyway.
		dist, err := degseq.TruncateFor(p, trunc, int64(cfg.N))
		if err != nil {
			return nil, err
		}
		plan, err := planner.ComputeDist(dist, int64(cfg.N))
		if err != nil {
			return nil, err
		}
		thresh := plan.Kernel.CoreThreshold
		rank, err := order.Rank(g, order.KindDescending, nil)
		if err != nil {
			return nil, err
		}
		o, err := digraph.Orient(g, rank)
		if err != nil {
			return nil, err
		}
		for _, m := range cfg.Methods {
			var base listing.Stats
			var baseMS float64
			haveBase := false
			for _, k := range cfg.Kernels {
				opts := []listing.Option{listing.WithKernel(k)}
				bitTier := k == listing.KernelBits || k == listing.KernelHybrid
				if bitTier {
					opts = append(opts, listing.WithCoreThreshold(thresh))
				}
				var st listing.Stats
				best := 0.0
				for r := 0; r < cfg.Reps; r++ {
					t0 := time.Now()
					st = listing.Run(o, m, nil, opts...)
					ms := float64(time.Since(t0)) / float64(time.Millisecond)
					if r == 0 || ms < best {
						best = ms
					}
				}
				if k == listing.KernelMerge {
					base, baseMS, haveBase = st, best, true
				} else if haveBase && st != base {
					return nil, fmt.Errorf("experiments: kernel %v diverged from merge on %v/%v: %+v vs %+v",
						k, trunc, m, st, base)
				}
				row := KernelRow{
					Trunc:     trunc,
					Method:    m,
					Kernel:    k,
					Triangles: st.Triangles,
					ModelOps:  st.ModelOps(),
					BestMS:    best,
					Speedup:   1,
				}
				if bitTier {
					row.CoreThreshold = thresh
				}
				if baseMS > 0 && k != listing.KernelMerge {
					row.Speedup = baseMS / best
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatKernels renders rows as the aligned text table the CLI prints.
func FormatKernels(rows []KernelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel ablation — wall-clock per sweep, speedup vs merge (θ_D)\n")
	fmt.Fprintf(&b, "%-8s %-6s %-7s %12s %14s %6s %10s %9s\n",
		"trunc", "method", "kernel", "triangles", "model-ops", "tau", "best-ms", "speedup")
	for _, r := range rows {
		tau := "-"
		if r.CoreThreshold > 0 {
			tau = fmt.Sprintf("%d", r.CoreThreshold)
		}
		fmt.Fprintf(&b, "%-8s %-6s %-7s %12d %14d %6s %10.2f %8.2fx\n",
			r.Trunc, r.Method, r.Kernel, r.Triangles, r.ModelOps, tau, r.BestMS, r.Speedup)
	}
	return b.String()
}

// WriteKernelsCSV emits rows as CSV.
func WriteKernelsCSV(w io.Writer, rows []KernelRow) error {
	if _, err := fmt.Fprintln(w, "truncation,method,kernel,triangles,model_ops,core_threshold,best_ms,speedup_vs_merge"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%.3f,%.3f\n",
			r.Trunc, r.Method, r.Kernel, r.Triangles, r.ModelOps, r.CoreThreshold, r.BestMS, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}
