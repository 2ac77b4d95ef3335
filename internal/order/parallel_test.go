package order

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"trilist/internal/gen"
	"trilist/internal/stats"
)

// TestAscendingDegreePositionsMatchesReference: the counting sort
// reproduces the reflection sort.SliceStable it replaced, element for
// element, on skewed and flat degree profiles.
func TestAscendingDegreePositionsMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 700} {
		m := min(int64(3*n), int64(n)*int64(n-1)/2)
		g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(uint64(n)+1))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool {
			da, db := g.Degree(want[a]), g.Degree(want[b])
			if da != db {
				return da < db
			}
			return want[a] < want[b]
		})
		if got := ascendingDegreePositions(g); !slices.Equal(got, want) {
			t.Fatalf("n=%d: counting sort diverges from reference", n)
		}
	}
}

// TestRankWorkerInvariance: WithWorkers never changes the rank, for
// every kind, including the RNG-driven uniform order.
func TestRankWorkerInvariance(t *testing.T) {
	g, err := gen.ErdosRenyi(400, 2400, stats.NewRNGFromSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			mk := func(w int) []int32 {
				var rng *stats.RNG
				if kind == KindUniform {
					rng = stats.NewRNGFromSeed(5)
				}
				rank, err := Rank(g, kind, rng, WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				return rank
			}
			serial := mk(1)
			for _, w := range []int{2, 8} {
				if !slices.Equal(mk(w), serial) {
					t.Fatalf("workers=%d: rank differs from serial", w)
				}
			}
		})
	}
}

// TestValidateParallelErrors: RankFromPerm keeps the bijection check's
// error messages, and names the same offending entry, whatever
// WithWorkers asks for.
func TestValidateParallelErrors(t *testing.T) {
	n := 400
	g, err := gen.ErdosRenyi(n, 1200, stats.NewRNGFromSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	base := Ascending(n)
	for _, w := range []int{1, 2, 8} {
		oob := slices.Clone(base)
		oob[123] = int32(n)
		_, err := RankFromPerm(g, oob, WithWorkers(w))
		want := fmt.Sprintf("order: perm[123] = %d out of range [0,%d)", n, n)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: out-of-range error = %v, want %q", w, err, want)
		}
		dup := slices.Clone(base)
		dup[399] = dup[40]
		_, err = RankFromPerm(g, dup, WithWorkers(w))
		if err == nil || err.Error() != "order: label 40 assigned twice" {
			t.Fatalf("workers=%d: duplicate error = %v", w, err)
		}
	}
}
