// Package fenwick implements a Fenwick (binary-indexed) tree over float64
// weights with prefix-sum queries, point updates, and weighted sampling
// via prefix search.
//
// The paper's random-graph construction (§7.2) "picks neighbors in
// proportion to their residual degree and excludes the already-attached
// neighbors", which it notes "can be done in n log n time using interval
// trees that record the residual probability mass of degree on both sides
// of each node". This package is that interval structure: Total, Add, and
// FindByPrefix give O(log n) mass bookkeeping and proportional selection.
package fenwick

import "fmt"

// Tree is a Fenwick tree over n float64 weights indexed 0..n-1.
// The zero value is unusable; construct with New.
type Tree struct {
	// tree uses the conventional 1-based internal layout.
	tree []float64
	n    int
}

// New returns a tree of n zero weights.
func New(n int) *Tree {
	if n < 0 {
		panic(fmt.Sprintf("fenwick: negative size %d", n))
	}
	return &Tree{tree: make([]float64, n+1), n: n}
}

// Add adds delta to the weight at index i (0-based).
func (t *Tree) Add(i int, delta float64) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("fenwick: index %d out of range [0,%d)", i, t.n))
	}
	for j := i + 1; j <= t.n; j += j & -j {
		t.tree[j] += delta
	}
}

// PrefixSum returns the sum of weights at indices [0, i]. For i < 0 it
// returns 0; for i >= Len() it returns the total.
func (t *Tree) PrefixSum(i int) float64 {
	if i >= t.n {
		i = t.n - 1
	}
	var s float64
	for j := i + 1; j > 0; j -= j & -j {
		s += t.tree[j]
	}
	return s
}

// RangeSum returns the sum of weights at indices [lo, hi] inclusive.
func (t *Tree) RangeSum(lo, hi int) float64 {
	if lo > hi {
		return 0
	}
	return t.PrefixSum(hi) - t.PrefixSum(lo-1)
}

// Total returns the sum of all weights.
func (t *Tree) Total() float64 { return t.PrefixSum(t.n - 1) }

// Get returns the weight at index i in O(log n).
func (t *Tree) Get(i int) float64 { return t.RangeSum(i, i) }

// Set overwrites the weight at index i.
func (t *Tree) Set(i int, w float64) { t.Add(i, w-t.Get(i)) }

// FindByPrefix returns the smallest index i such that PrefixSum(i) >= x,
// assuming all weights are non-negative. If x exceeds the total it returns
// Len()-1 when the tree is non-empty; it panics on an empty tree. This is
// the inverse-CDF step of weighted sampling: drawing x uniform in
// (0, Total] selects index i with probability w_i / Total.
func (t *Tree) FindByPrefix(x float64) int {
	if t.n == 0 {
		panic("fenwick: FindByPrefix on empty tree")
	}
	pos := 0
	// Largest power of two <= n.
	bit := 1
	for bit<<1 <= t.n {
		bit <<= 1
	}
	for ; bit > 0; bit >>= 1 {
		next := pos + bit
		if next <= t.n && t.tree[next] < x {
			pos = next
			x -= t.tree[next]
		}
	}
	if pos >= t.n {
		pos = t.n - 1
	}
	return pos
}
