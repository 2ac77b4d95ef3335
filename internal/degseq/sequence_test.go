package degseq

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"trilist/internal/stats"
)

func TestSampleLengthAndRange(t *testing.T) {
	base := Pareto{Alpha: 1.5, Beta: 15}
	tr, _ := NewTruncated(base, 50)
	r := stats.NewRNGFromSeed(5)
	d := Sample(tr, 1000, r)
	if len(d) != 1000 {
		t.Fatalf("len = %d", len(d))
	}
	for i, x := range d {
		if x < 1 || x > 50 {
			t.Fatalf("d[%d] = %d out of [1,50]", i, x)
		}
	}
}

func TestSequenceStats(t *testing.T) {
	d := Sequence{3, 1, 4, 1, 5}
	if d.Sum() != 14 {
		t.Fatalf("Sum = %d", d.Sum())
	}
	if d.Max() != 5 {
		t.Fatalf("Max = %d", d.Max())
	}
	if math.Abs(d.Mean()-2.8) > 1e-12 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if !math.IsNaN((Sequence{}).Mean()) {
		t.Fatal("empty Mean should be NaN")
	}
	if (Sequence{}).Max() != 0 {
		t.Fatal("empty Max should be 0")
	}
}

func TestValidate(t *testing.T) {
	if err := (Sequence{1, 2, 3, 2}).Validate(); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	if err := (Sequence{0, 2}).Validate(); err == nil {
		t.Fatal("degree 0 accepted")
	}
	if err := (Sequence{3, 1, 1, 1}).Validate(); err != nil {
		t.Fatalf("max degree n-1 rejected: %v", err)
	}
	if err := (Sequence{4, 1, 1, 1}).Validate(); err == nil {
		t.Fatal("degree > n-1 accepted")
	}
}

func TestIsRootConstrained(t *testing.T) {
	d := make(Sequence, 100)
	for i := range d {
		d[i] = 1
	}
	d[0] = 10
	if !d.IsRootConstrained() {
		t.Fatal("L_n = 10 = √100 should satisfy root constraint")
	}
	d[0] = 11
	if d.IsRootConstrained() {
		t.Fatal("L_n = 11 > √100 should violate root constraint")
	}
}

func TestSortedAscendingIsCopy(t *testing.T) {
	d := Sequence{5, 1, 3}
	a := d.SortedAscending()
	if a[0] != 1 || a[1] != 3 || a[2] != 5 {
		t.Fatalf("sorted = %v", a)
	}
	a[0] = 99
	if d[1] != 1 {
		t.Fatal("SortedAscending aliased input")
	}
}

func TestMakeEven(t *testing.T) {
	d := Sequence{3, 2, 2} // sum 7, odd
	if !d.MakeEven() {
		t.Fatal("odd sum not fixed")
	}
	if d.Sum()%2 != 0 {
		t.Fatalf("sum still odd: %v", d)
	}
	if d[0] != 2 { // largest entry decremented
		t.Fatalf("expected max entry decrement, got %v", d)
	}
	even := Sequence{2, 2}
	if even.MakeEven() {
		t.Fatal("even sum modified")
	}
	ones := Sequence{1, 1, 1} // odd sum, nothing > 1
	if ones.MakeEven() {
		t.Fatal("all-ones sequence should be left for the generator")
	}
}

// bruteForceGraphic checks graphicality by trying to realize the sequence
// with the Havel–Hakimi algorithm, which is exact.
func bruteForceGraphic(d Sequence) bool {
	n := len(d)
	work := make([]int64, n)
	copy(work, d)
	for {
		// Sort descending.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && work[j] > work[j-1]; j-- {
				work[j], work[j-1] = work[j-1], work[j]
			}
		}
		if work[0] == 0 {
			return true
		}
		k := work[0]
		if k > int64(n-1) {
			return false
		}
		work[0] = 0
		for i := int64(1); i <= k; i++ {
			work[i]--
			if work[i] < 0 {
				return false
			}
		}
	}
}

func TestErdosGallaiKnownCases(t *testing.T) {
	cases := []struct {
		d    Sequence
		want bool
	}{
		{Sequence{}, true},
		{Sequence{1, 1}, true},
		{Sequence{2, 2, 2}, true},           // triangle
		{Sequence{3, 3, 3, 3}, true},        // K4
		{Sequence{1, 1, 1}, false},          // odd sum
		{Sequence{3, 1, 1, 1}, true},        // star
		{Sequence{4, 1, 1, 1, 1}, true},     // star K1,4
		{Sequence{5, 1, 1, 1}, false},       // degree > n-1
		{Sequence{4, 4, 1, 1, 1, 1}, false}, // fails EG at k=2
		{Sequence{3, 3, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.d.IsGraphic(); got != c.want {
			t.Errorf("IsGraphic(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestErdosGallaiMatchesHavelHakimi(t *testing.T) {
	f := func(raw []uint8, size uint8) bool {
		n := int(size%10) + 2
		d := make(Sequence, n)
		for i := range d {
			v := int64(1)
			if i < len(raw) {
				v = int64(raw[i]%uint8(n)) + 1
			}
			if v > int64(n-1) {
				v = int64(n - 1)
			}
			d[i] = v
		}
		if d.Sum()%2 != 0 {
			d.MakeEven()
		}
		if d.Sum()%2 != 0 {
			return true // skip: un-evenable
		}
		return d.IsGraphic() == bruteForceGraphic(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRootTruncatedSamplesAreGraphicable(t *testing.T) {
	// Root-truncated Pareto sequences should essentially always be graphic
	// after evenization (the paper assumes "graphic with probability
	// 1 - o(1), or can be made such by removal of one edge").
	base := StandardPareto(1.5)
	r := stats.NewRNGFromSeed(31)
	failures := 0
	for trial := 0; trial < 20; trial++ {
		n := 2000
		tr, _ := TruncateFor(base, RootTruncation, int64(n))
		d := Sample(tr, n, r.Child())
		d.MakeEven()
		if d.Sum()%2 != 0 {
			continue
		}
		if !d.IsGraphic() {
			failures++
		}
	}
	if failures > 0 {
		t.Fatalf("%d/20 root-truncated sequences non-graphic", failures)
	}
}

// The Sequence methods below serve only these tests; no command calls
// them.

// Max returns the largest degree L_n, or 0 for an empty sequence.
func (d Sequence) Max() int64 {
	var m int64
	for _, x := range d {
		if x > m {
			m = x
		}
	}
	return m
}

// Mean returns the average degree.
func (d Sequence) Mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return float64(d.Sum()) / float64(len(d))
}

// IsRootConstrained reports whether L_n <= √n, the deterministic AMRC
// guarantee of root truncation (Definition 1, §3.1).
func (d Sequence) IsRootConstrained() bool {
	max := d.Max()
	return max*max <= int64(len(d))
}

// SortedAscending returns a copy of the sequence sorted ascending: the
// vector A_n of order statistics the paper's permutations act on.
func (d Sequence) SortedAscending() Sequence {
	a := make(Sequence, len(d))
	copy(a, d)
	slices.Sort(a)
	return a
}

// IsGraphic reports whether the sequence is graphic — realizable by a
// simple undirected graph — using the Erdős–Gallai theorem: with
// d_1 >= ... >= d_n,
//
//	Σ_{i<=k} d_i  <=  k(k-1) + Σ_{i>k} min(d_i, k)   for every k,
//
// and the degree sum even. Runs in O(n log n) (dominated by the sort).
func (d Sequence) IsGraphic() bool {
	n := len(d)
	if n == 0 {
		return true
	}
	if d.Sum()%2 != 0 {
		return false
	}
	desc := make([]int64, n)
	copy(desc, d)
	slices.SortFunc(desc, func(a, b int64) int { return cmp.Compare(b, a) })
	if desc[0] > int64(n-1) || desc[n-1] < 0 {
		return false
	}
	// Prefix sums of the descending sequence.
	prefix := make([]int64, n+1)
	for i, x := range desc {
		prefix[i+1] = prefix[i] + x
	}
	// For each k, Σ_{i>k} min(d_i, k) splits at the first index (0-based,
	// beyond k) where d_i < k: before it the min is k, after it the sum of
	// degrees. Because desc is sorted, that index is found by binary
	// search; overall O(n log n).
	for k := 1; k <= n; k++ {
		lhs := prefix[k]
		// First index j in [k, n) with desc[j] < k.
		j := sort.Search(n-k, func(t int) bool { return desc[k+t] < int64(k) }) + k
		rhs := int64(k*(k-1)) + int64(j-k)*int64(k) + (prefix[n] - prefix[j])
		if lhs > rhs {
			return false
		}
	}
	return true
}
