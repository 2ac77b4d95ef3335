package stats

import (
	"math"
	"testing"
)

// sampleOf accumulates xs serially.
func sampleOf(xs []float64) Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// assertClose compares two samples on every reported statistic to within
// a relative (or, near zero, absolute) tolerance of 1e-12.
func assertClose(t *testing.T, name string, got, want Sample) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", name, got.n, want.n)
	}
	near := func(stat string, g, w float64) {
		t.Helper()
		if math.IsNaN(g) && math.IsNaN(w) {
			return
		}
		tol := 1e-12 * math.Max(1, math.Abs(w))
		if math.Abs(g-w) > tol {
			t.Errorf("%s: %s = %v, want %v (diff %g)", name, stat, g, w, g-w)
		}
	}
	near("mean", got.Mean(), want.Mean())
}

func TestMergeTableDriven(t *testing.T) {
	cases := []struct {
		name   string
		shards [][]float64
	}{
		{"two-balanced", [][]float64{{1, 2, 3}, {4, 5, 6}}},
		{"uneven", [][]float64{{10}, {1, 2, 3, 4, 5, 6, 7}}},
		{"singletons", [][]float64{{3.5}, {-1.25}, {7}, {0}}},
		{"empty-left", [][]float64{{}, {2, 4, 8}}},
		{"empty-right", [][]float64{{2, 4, 8}, {}}},
		{"all-empty", [][]float64{{}, {}}},
		{"negative-and-positive", [][]float64{{-5, -3, -1}, {1, 3, 5}}},
		{"constant", [][]float64{{2, 2}, {2, 2, 2}}},
		{"wide-magnitudes", [][]float64{{1e-9, 2e-9}, {1e9, 2e9}, {0.5}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var merged Sample
			var all []float64
			for _, sh := range c.shards {
				merged.Merge(sampleOf(sh))
				all = append(all, sh...)
			}
			assertClose(t, c.name, merged, sampleOf(all))
		})
	}
}

func TestMergeRandomizedShardSplits(t *testing.T) {
	// Property check: for random data split into k disjoint shards at
	// random cut points, merging the shard samples matches the single
	// serial sample on every statistic to 1e-12.
	rng := NewRNGFromSeed(20170514)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(400)
		xs := make([]float64, n)
		for i := range xs {
			// Mix scales so the test also exercises numerical stability.
			xs[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(7)-3))
		}
		k := 1 + rng.IntN(8)
		cuts := append([]int{0}, make([]int, k-1)...)
		for i := 1; i < k; i++ {
			cuts[i] = rng.IntN(n + 1)
		}
		cuts = append(cuts, n)
		// Sort cut points so shards are contiguous and disjoint.
		for i := 1; i < len(cuts); i++ {
			for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
				cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
			}
		}
		var merged Sample
		for i := 0; i+1 < len(cuts); i++ {
			merged.Merge(sampleOf(xs[cuts[i]:cuts[i+1]]))
		}
		assertClose(t, "random", merged, sampleOf(xs))
	}
}

func TestMergeIntoEmptyCopiesState(t *testing.T) {
	src := sampleOf([]float64{1, 4, 9})
	var dst Sample
	dst.Merge(src)
	if dst != src {
		t.Fatalf("merge into empty: %+v != %+v", dst, src)
	}
	// Merging an empty sample is a no-op.
	before := dst
	dst.Merge(Sample{})
	if dst != before {
		t.Fatalf("merge of empty changed state: %+v != %+v", dst, before)
	}
}

func TestMergeAssociativity(t *testing.T) {
	// (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) agree to high precision — the engine
	// relies on a fixed fold order for bit-stability, but near-associativity
	// is what makes the estimate trustworthy regardless of sharding.
	a := sampleOf([]float64{1, 2, 3, 4})
	b := sampleOf([]float64{10, 20})
	c := sampleOf([]float64{-5, 0.5, 2.25})
	left := a
	left.Merge(b)
	left.Merge(c)
	bc := b
	bc.Merge(c)
	right := a
	right.Merge(bc)
	assertClose(t, "associativity", left, right)
}
