package model

import (
	"math"
	"sort"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

// The edge-probability model of eq. (10), p_ij = d_i d_j / 2m, is
// exactly the Chung–Lu random graph. These tests close the loop between
// the generator and the analytical layer built on (10): expected
// out-degrees (eq. 11) and per-sequence costs (eq. 14) must match
// Chung–Lu simulation tightly, since there is no approximation gap left.

func TestEq11ExactOnChungLu(t *testing.T) {
	rng := stats.NewRNGFromSeed(1001)
	n := 800
	// Moderate weights so no p_ij cap binds.
	tr, err := degseq.NewTruncated(degseq.StandardPareto(2.0), 25)
	if err != nil {
		t.Fatal(err)
	}
	d := degseq.Sample(tr, n, rng.Child())
	// Fix the labeling by the *prescribed* degrees (what eq. 11 is
	// conditioned on), not per-instance realized degrees: ascending
	// prescribed degree, ties by node ID.
	rank := prescribedAscendingRank(d)
	byLabel := make([]int64, n)
	for v, label := range rank {
		byLabel[label] = d[v]
	}
	want := ExpectedOutDegrees(byLabel, nil)

	got := make([]float64, n)
	const reps = 120
	for r := 0; r < reps; r++ {
		g, _, err := gen.ChungLu(d, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		o, err := digraph.Orient(g, rank)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			got[v] += float64(o.OutDeg(int32(v))) / reps
		}
	}
	// Aggregate comparison over label blocks (per-label noise at 120
	// reps is too high for pointwise bounds).
	for _, blk := range [][2]int{{0, n / 4}, {n / 4, n / 2}, {n / 2, 3 * n / 4}, {3 * n / 4, n}} {
		var g, w float64
		for i := blk[0]; i < blk[1]; i++ {
			g += got[i]
			w += want[i]
		}
		if w == 0 {
			continue
		}
		if math.Abs(g-w)/w > 0.08 {
			t.Errorf("labels [%d,%d): simulated ΣE[X] = %v, eq. (11) = %v", blk[0], blk[1], g, w)
		}
	}
}

func TestEq14TracksChungLuCosts(t *testing.T) {
	// Per-sequence cost model (eq. 14) vs measured cost on Chung–Lu
	// graphs, all four core methods under their optimal orders.
	rng := stats.NewRNGFromSeed(2002)
	n := 3000
	tr, err := degseq.NewTruncated(degseq.StandardPareto(1.8), 50)
	if err != nil {
		t.Fatal(err)
	}
	d := degseq.Sample(tr, n, rng.Child())
	asc := sortedAscending(d)

	cases := []struct {
		m    listing.Method
		kind order.Kind
	}{
		{listing.T1, order.KindDescending},
		{listing.T2, order.KindRoundRobin},
		{listing.E1, order.KindDescending},
		{listing.E4, order.KindCRR},
	}
	baseRank := prescribedAscendingRank(d)
	for _, c := range cases {
		// Arrange degrees by label under the order's permutation applied
		// to the prescribed-degree positions (fixed across instances).
		var p order.Perm
		switch c.kind {
		case order.KindDescending:
			p = order.Descending(n)
		case order.KindRoundRobin:
			p = order.RoundRobin(n)
		case order.KindCRR:
			p = order.ComplementaryRoundRobin(n)
		}
		rank := make([]int32, n)
		for v := 0; v < n; v++ {
			rank[v] = p[baseRank[v]]
		}
		byLabel := make([]int64, n)
		for pos, label := range p {
			byLabel[label] = asc[pos]
		}
		pred, err := SequenceCost(byLabel, H(c.m), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sim stats.Sample
		for r := 0; r < 12; r++ {
			g, _, err := gen.ChungLu(d, rng.Child())
			if err != nil {
				t.Fatal(err)
			}
			o, err := digraph.Orient(g, rank)
			if err != nil {
				t.Fatal(err)
			}
			sim.Add(listing.ModelCost(o, c.m) / float64(n))
		}
		if math.Abs(sim.Mean()-pred)/pred > 0.12 {
			t.Errorf("%v+%v: simulated %v vs eq. (14) %v", c.m, c.kind, sim.Mean(), pred)
		}
	}
}

// prescribedAscendingRank labels nodes by ascending prescribed degree
// (ties by node ID): rank[v] = label of node v.
func prescribedAscendingRank(d degseq.Sequence) []int32 {
	n := len(d)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sortSliceStable(idx, func(a, b int32) bool {
		if d[a] != d[b] {
			return d[a] < d[b]
		}
		return a < b
	})
	rank := make([]int32, n)
	for pos, v := range idx {
		rank[v] = int32(pos)
	}
	return rank
}

func sortSliceStable(s []int32, less func(a, b int32) bool) {
	sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
}
