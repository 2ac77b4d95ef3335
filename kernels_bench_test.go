// BenchmarkKernels compares the neighbor-intersection kernels (merge,
// gallop, bitmap, auto, bits, hybrid) on the paper's two truncation
// regimes. The model cost is kernel-invariant by construction — these
// benches measure the constant-factor wall-clock freedom the kernels
// exploit, and report each kernel's auxiliary state (packed bit rows +
// arena scratch) as aux-B/op. `go run ./cmd/experiments -table kernels`
// prints the same comparison at n = 60000; the recorded rows, with the
// host they ran on, are in EXPERIMENTS.md. The acceptance bar is
// auto >= 1.3x merge on the linear-truncation graph and hybrid >= 1.5x
// merge there at the planner-chosen threshold. The exact triangle and
// model-op columns of those workloads are pinned by internal/experiments'
// TestParetoWorkloadInvariants.
package trilist_test

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/listing"
	"trilist/internal/order"
)

func BenchmarkKernels(b *testing.B) {
	for _, tc := range []struct {
		name  string
		trunc degseq.Truncation
	}{
		{"root", degseq.RootTruncation},
		{"linear", degseq.LinearTruncation},
	} {
		g := paretoGraph(b, 1.5, 30000, tc.trunc)
		o := orient(b, g, order.KindDescending)
		for _, m := range []listing.Method{listing.E1, listing.E2} {
			want := listing.Run(o, m, nil, listing.WithKernel(listing.KernelMerge)).Triangles
			for _, k := range listing.Kernels {
				b.Run(fmt.Sprintf("%s/%v/%v", tc.name, m, k), func(b *testing.B) {
					var tri int64
					var tier listing.TierStats
					for i := 0; i < b.N; i++ {
						tri = listing.Run(o, m, nil, listing.WithKernel(k), listing.WithTierStats(&tier)).Triangles
					}
					if tri != want {
						b.Fatalf("kernel %v found %d triangles, merge found %d", k, tri, want)
					}
					// Auxiliary sweep state beyond the CSR: packed bit rows
					// (bits/hybrid) plus per-worker arena scratch.
					b.ReportMetric(float64(tier.RowBytes+tier.ArenaBytes), "aux-B/op")
				})
			}
		}
	}
}
