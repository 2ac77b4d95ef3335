package fenwick

import (
	"math"
	"testing"
	"testing/quick"

	"trilist/internal/stats"
)

func TestEmptyAndSingle(t *testing.T) {
	e := New(0)
	if e.Len() != 0 || e.Total() != 0 {
		t.Fatal("empty tree misbehaves")
	}
	s := New(1)
	s.Add(0, 3.5)
	if s.Total() != 3.5 || s.Get(0) != 3.5 || s.FindByPrefix(1) != 0 {
		t.Fatal("single-element tree misbehaves")
	}
}

func TestFromWeightsMatchesAdds(t *testing.T) {
	w := []float64{1, 0, 2.5, 3, 0.25, 7}
	a := fromWeights(w)
	b := New(len(w))
	for i, x := range w {
		b.Add(i, x)
	}
	for i := range w {
		if a.PrefixSum(i) != b.PrefixSum(i) {
			t.Fatalf("prefix %d: FromWeights %v vs Add %v", i, a.PrefixSum(i), b.PrefixSum(i))
		}
	}
}

func TestPrefixSumsAgainstNaive(t *testing.T) {
	f := func(raw []float64) bool {
		w := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 1
			}
			w[i] = math.Abs(math.Mod(x, 100))
		}
		tr := fromWeights(w)
		var naive float64
		for i := range w {
			naive += w[i]
			if math.Abs(tr.PrefixSum(i)-naive) > 1e-9*(1+math.Abs(naive)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSumAndSet(t *testing.T) {
	tr := fromWeights([]float64{1, 2, 3, 4, 5})
	if got := tr.RangeSum(1, 3); got != 9 {
		t.Fatalf("RangeSum(1,3) = %v, want 9", got)
	}
	if got := tr.RangeSum(3, 1); got != 0 {
		t.Fatalf("RangeSum(3,1) = %v, want 0", got)
	}
	tr.Set(2, 10)
	if got := tr.Get(2); got != 10 {
		t.Fatalf("Get(2) after Set = %v, want 10", got)
	}
	if got := tr.Total(); got != 22 {
		t.Fatalf("Total after Set = %v, want 22", got)
	}
}

func TestFindByPrefixBoundaries(t *testing.T) {
	tr := fromWeights([]float64{2, 0, 3, 5})
	cases := []struct {
		x    float64
		want int
	}{
		{0.1, 0}, {2, 0}, {2.1, 2}, {5, 2}, {5.1, 3}, {10, 3}, {999, 3},
	}
	for _, c := range cases {
		if got := tr.FindByPrefix(c.x); got != c.want {
			t.Errorf("FindByPrefix(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestFindByPrefixSkipsZeroWeight(t *testing.T) {
	tr := fromWeights([]float64{0, 0, 1, 0, 1})
	r := stats.NewRNGFromSeed(3)
	for i := 0; i < 1000; i++ {
		x := r.OpenFloat64() * tr.Total()
		got := tr.FindByPrefix(x)
		if got != 2 && got != 4 {
			t.Fatalf("FindByPrefix selected zero-weight index %d", got)
		}
	}
}

func TestWeightedSamplingProportions(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	tr := fromWeights(w)
	r := stats.NewRNGFromSeed(99)
	counts := make([]float64, len(w))
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[tr.FindByPrefix(r.OpenFloat64()*tr.Total())]++
	}
	for i, wi := range w {
		want := wi / 10 * draws
		if math.Abs(counts[i]-want) > 6*math.Sqrt(want) {
			t.Errorf("index %d drawn %v times, want ~%v", i, counts[i], want)
		}
	}
}

func TestDynamicUpdatesSampling(t *testing.T) {
	// Zero out an index; it must never be selected afterwards.
	tr := fromWeights([]float64{5, 5, 5})
	tr.Set(1, 0)
	r := stats.NewRNGFromSeed(7)
	for i := 0; i < 5000; i++ {
		if got := tr.FindByPrefix(r.OpenFloat64() * tr.Total()); got == 1 {
			t.Fatal("selected zeroed index")
		}
	}
}

func TestPanics(t *testing.T) {
	tr := New(3)
	for _, fn := range []func(){
		func() { tr.Add(-1, 1) },
		func() { tr.Add(3, 1) },
		func() { New(-1) },
		func() { New(0).FindByPrefix(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// fromWeights and Tree.Len serve only these tests; no command calls
// them.

// fromWeights builds a tree initialized to the given weights in O(n).
func fromWeights(w []float64) *Tree {
	t := New(len(w))
	copy(t.tree[1:], w)
	for i := 1; i <= t.n; i++ {
		if p := i + (i & -i); p <= t.n {
			t.tree[p] += t.tree[i]
		}
	}
	return t
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }
