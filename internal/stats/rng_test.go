package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(1, 2)
	b := NewRNG(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGChildDeterminism(t *testing.T) {
	a := NewRNG(7, 9).Child()
	b := NewRNG(7, 9).Child()
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("child streams diverged at step %d", i)
		}
	}
}

func TestRNGChildrenDistinct(t *testing.T) {
	p := NewRNG(7, 9)
	c1 := p.Child()
	c2 := p.Child()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling streams collide in %d/64 draws", same)
	}
}

func TestRNGChildIndependentOfParentUse(t *testing.T) {
	// Deriving a child must not depend on how much the parent stream was
	// consumed, only on the derivation count.
	p1 := NewRNG(3, 4)
	p2 := NewRNG(3, 4)
	p2.Float64()
	p2.Float64()
	c1 := p1.Child()
	c2 := p2.Child()
	if c1.Float64() != c2.Float64() {
		t.Fatal("child stream depends on parent consumption")
	}
}

func TestOpenFloat64Range(t *testing.T) {
	r := NewRNGFromSeed(42)
	for i := 0; i < 10000; i++ {
		u := r.OpenFloat64()
		if u <= 0 || u >= 1 {
			t.Fatalf("OpenFloat64 returned %v outside (0,1)", u)
		}
	}
}

func TestIntNUniform(t *testing.T) {
	r := NewRNGFromSeed(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntN(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNGFromSeed(11)
	p := 0.2
	var s Sample
	for i := 0; i < 200000; i++ {
		s.Add(float64(r.Geometric(p)))
	}
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(s.Mean()-want) > 0.05 {
		t.Fatalf("Geometric(%v) mean = %v, want %v", p, s.Mean(), want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := NewRNGFromSeed(1)
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestPermIsBijection(t *testing.T) {
	r := NewRNGFromSeed(13)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid value %d", v)
		}
		seen[v] = true
	}
}

func TestShuffleInt32PreservesMultiset(t *testing.T) {
	r := NewRNGFromSeed(17)
	s := []int32{5, 5, 1, 2, 3, 9, 9, 9}
	sum := int32(0)
	for _, v := range s {
		sum += v
	}
	r.ShuffleInt32(s)
	got := int32(0)
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d -> %d", sum, got)
	}
}
