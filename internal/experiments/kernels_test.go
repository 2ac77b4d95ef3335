package experiments

import (
	"fmt"
	"strings"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func tinyKernelConfig() KernelConfig {
	return KernelConfig{N: 1500, Seed: 7, Reps: 1}
}

// TestKernelsTableShape: one row per (truncation, method, kernel), the
// bit-parallel rows carry the planner-chosen threshold, and every
// kernel of a (truncation, method) group agrees on triangles and model
// cost — the ablation's built-in differential check.
func TestKernelsTableShape(t *testing.T) {
	rows, err := TableKernels(tinyKernelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * len(listing.Kernels); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	type group struct{ trunc, method string }
	tri := map[group]int64{}
	ops := map[group]int64{}
	for _, r := range rows {
		bitTier := r.Kernel == listing.KernelBits || r.Kernel == listing.KernelHybrid
		if bitTier && r.CoreThreshold < 1 {
			t.Errorf("%s/%v/%v: bit-tier row has threshold %d", r.Trunc, r.Method, r.Kernel, r.CoreThreshold)
		}
		if !bitTier && r.CoreThreshold != 0 {
			t.Errorf("%s/%v/%v: list-kernel row has threshold %d", r.Trunc, r.Method, r.Kernel, r.CoreThreshold)
		}
		g := group{r.Trunc.String(), r.Method.String()}
		if prev, ok := tri[g]; ok && (prev != r.Triangles || ops[g] != r.ModelOps) {
			t.Errorf("%s/%s: kernel %v disagrees (%d tri / %d ops vs %d / %d)",
				g.trunc, g.method, r.Kernel, r.Triangles, r.ModelOps, prev, ops[g])
		}
		tri[g], ops[g] = r.Triangles, r.ModelOps
		if r.Kernel == listing.KernelMerge && r.Speedup != 1 {
			t.Errorf("merge row speedup %v, want 1", r.Speedup)
		}
	}
	if len(tri) != 4 {
		t.Errorf("saw %d (truncation, method) groups, want 4", len(tri))
	}
}

// TestKernelsFormatAndCSV smoke-checks the two renderings, including
// the planner threshold column.
func TestKernelsFormatAndCSV(t *testing.T) {
	rows, err := TableKernels(tinyKernelConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := FormatKernels(rows)
	for _, want := range []string{"root", "linear", "merge", "hybrid", "bits", "tau"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted table missing %q:\n%s", want, text)
		}
	}
	var csv strings.Builder
	if err := WriteKernelsCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "truncation,method,kernel,triangles,model_ops,core_threshold,best_ms,speedup_vs_merge\n") {
		t.Errorf("CSV header wrong:\n%s", csv.String())
	}
	if lines := strings.Count(strings.TrimSpace(csv.String()), "\n"); lines != len(rows) {
		t.Errorf("CSV has %d data lines, want %d", lines, len(rows))
	}
}

// TestParetoWorkloadInvariants pins the exact columns the kernel and
// pipeline tables reported on their full-size workloads: the triangle
// count and model cost of E1 (and E2 at n = 60000) under θ_D on the
// root- and linear-truncated Pareto(1.5) graphs both tables generate
// (seed 20170514 for root, 20170515 for linear). These are
// deterministic given the seed, so they are checked here rather than
// in a wall-clock benchmark document.
func TestParetoWorkloadInvariants(t *testing.T) {
	cases := []struct {
		trunc     degseq.Truncation
		n         int
		seed      uint64
		methods   []listing.Method
		triangles int64
		modelOps  int64
	}{
		{degseq.RootTruncation, 50000, 20170514, []listing.Method{listing.E1}, 40378, 12322471},
		{degseq.LinearTruncation, 50000, 20170515, []listing.Method{listing.E1}, 4508334, 48705427},
		{degseq.RootTruncation, 60000, 20170514, []listing.Method{listing.E1, listing.E2}, 46770, 15566055},
		{degseq.LinearTruncation, 60000, 20170515, []listing.Method{listing.E1, listing.E2}, 4935214, 59442169},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%v/n=%d", tc.trunc, tc.n), func(t *testing.T) {
			t.Parallel()
			g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.5), tc.n, tc.trunc, stats.NewRNGFromSeed(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			rank, err := order.Rank(g, order.KindDescending, nil)
			if err != nil {
				t.Fatal(err)
			}
			o, err := digraph.Orient(g, rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tc.methods {
				st := listing.Run(o, m, nil)
				if st.Triangles != tc.triangles || st.ModelOps() != tc.modelOps {
					t.Errorf("%v: %d triangles, %d model ops; want %d, %d",
						m, st.Triangles, st.ModelOps(), tc.triangles, tc.modelOps)
				}
			}
		})
	}
}
