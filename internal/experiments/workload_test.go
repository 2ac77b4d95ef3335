package experiments

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// TestParetoWorkloadInvariants pins the exact columns the retired kernel
// and pipeline tables reported on their full-size workloads: the triangle
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
