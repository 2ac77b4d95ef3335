package order

import (
	"slices"
	"testing"

	"trilist/internal/stats"
)

// theorem3Objective is the finite-n discretization of eq. (37):
// Σ_i r(i/n)·h(θ(i)/n). Theorem 3 says Opt minimizes it over all n!
// permutations when r is monotonic.
func theorem3Objective(p Perm, r, h func(float64) float64) float64 {
	n := float64(len(p))
	var sum float64
	for i, label := range p {
		sum += r(float64(i+1)/n) * h(float64(label+1)/n)
	}
	return sum
}

// forEachPermutation enumerates all permutations of [0,n) via Heap's
// algorithm.
func forEachPermutation(n int, fn func(Perm)) {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	if n > 0 {
		rec(n)
	}
}

func TestOptIsGloballyMinimalByBruteForce(t *testing.T) {
	// Exhaustive Theorem 3 check at n <= 7 (5040 permutations) across
	// every h the paper uses and both monotonicity directions of r.
	hs := map[string]func(float64) float64{
		"T1": func(x float64) float64 { return x * x / 2 },
		"T2": func(x float64) float64 { return x * (1 - x) },
		"T3": func(x float64) float64 { return (1 - x) * (1 - x) / 2 },
		"E1": func(x float64) float64 { return x * (2 - x) / 2 },
		"E4": func(x float64) float64 { return (x*x + (1-x)*(1-x)) / 2 },
	}
	rs := map[string]struct {
		f   func(float64) float64
		inc bool
	}{
		"increasing": {func(x float64) float64 { return x * x }, true},
		"decreasing": {func(x float64) float64 { return 1 / (1 + x) }, false},
	}
	for n := 2; n <= 7; n++ {
		for hname, h := range hs {
			for rname, r := range rs {
				opt := Opt(n, h, r.inc)
				got := theorem3Objective(opt, r.f, h)
				best := got
				forEachPermutation(n, func(p Perm) {
					if v := theorem3Objective(p, r.f, h); v < best {
						best = v
					}
				})
				if got > best+1e-12 {
					t.Errorf("n=%d h=%s r=%s: Opt objective %v, true min %v",
						n, hname, rname, got, best)
				}
			}
		}
	}
}

func TestComplementOfOptIsGloballyMaximal(t *testing.T) {
	// Corollary 3 at finite n: the complement of the optimal permutation
	// attains the maximum of the objective.
	h := func(x float64) float64 { return x * (1 - x) } // T2
	r := func(x float64) float64 { return x }           // increasing
	for n := 2; n <= 7; n++ {
		worstPerm := Opt(n, h, true).Complement()
		got := theorem3Objective(worstPerm, r, h)
		worst := got
		forEachPermutation(n, func(p Perm) {
			if v := theorem3Objective(p, r, h); v > worst {
				worst = v
			}
		})
		if got < worst-1e-12 {
			t.Errorf("n=%d: complement objective %v, true max %v", n, got, worst)
		}
	}
}

func TestConstantRAllPermutationsEqual(t *testing.T) {
	// Proposition 8: with constant r the objective is permutation-
	// invariant.
	h := func(x float64) float64 { return x * x / 2 }
	r := func(float64) float64 { return 3 }
	n := 6
	ref := theorem3Objective(Ascending(n), r, h)
	rng := stats.NewRNGFromSeed(3)
	for trial := 0; trial < 50; trial++ {
		p := Uniform(n, rng)
		if v := theorem3Objective(p, r, h); v < ref-1e-12 || v > ref+1e-12 {
			t.Fatalf("objective %v != %v under constant r", v, ref)
		}
	}
}

// Opt implements Algorithm 1: it builds the permutation that minimizes
// the limiting cost E[w(D)]·E[r(U)h(ξ(U))] (eq. 37) when
// r(x) = g(J⁻¹(x))/w(J⁻¹(x)) is monotonic (Theorem 3). The sequence
// z = (h(1/n), ..., h(1)) is sorted opposite to r's monotonicity and
// positions are assigned the resulting label order; by the rearrangement
// inequality this pairs large r with small h.
func Opt(n int, h func(float64) float64, rIncreasing bool) Perm {
	type kv struct {
		key   float64
		index int32
	}
	z := make([]kv, n)
	for i := 0; i < n; i++ {
		z[i] = kv{key: h(float64(i+1) / float64(n)), index: int32(i)}
	}
	// Three-way comparators mirror the former sort.SliceStable booleans
	// exactly, NaN keys included (every NaN comparison yields 0, so
	// stability keeps them in place), preserving golden outputs.
	if rIncreasing {
		slices.SortStableFunc(z, func(a, b kv) int {
			switch {
			case a.key > b.key:
				return -1
			case b.key > a.key:
				return 1
			}
			return 0
		})
	} else {
		slices.SortStableFunc(z, func(a, b kv) int {
			switch {
			case a.key < b.key:
				return -1
			case b.key < a.key:
				return 1
			}
			return 0
		})
	}
	p := make(Perm, n)
	for i := range z {
		p[i] = z[i].index
	}
	return p
}
