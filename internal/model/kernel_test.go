package model

import (
	"fmt"
	"math"
	"testing"

	"trilist/internal/order"
	"trilist/internal/stats"
)

func TestNamedKernelsMeasurePreserving(t *testing.T) {
	// Definition 4: E[K(v; U)] = v for every admissible named order.
	for _, k := range []order.Kind{
		order.KindAscending, order.KindDescending, order.KindRoundRobin,
		order.KindCRR, order.KindUniform,
	} {
		kern, err := NamedKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		if d := CheckMeasurePreserving(kern, 16, 4096); d > 0.01 {
			t.Errorf("%v: measure preservation deviates by %v", k, d)
		}
	}
	if _, err := NamedKernel(order.KindDegenerate); err == nil {
		t.Fatal("degenerate order should have no kernel")
	}
}

func TestNonMeasurePreservingDetected(t *testing.T) {
	// A kernel that always maps to [0, 1/2] is not measure-preserving.
	bad := func(v, u float64) float64 {
		return math.Max(0, math.Min(1, 2*v))
	}
	if d := CheckMeasurePreserving(bad, 16, 2048); d < 0.3 {
		t.Fatalf("bad kernel passed with deviation %v", d)
	}
}

func TestPermutationsConvergeToTheirKernels(t *testing.T) {
	// Definition 5 / Prop. 6: the empirical window kernel of each named
	// deterministic permutation approaches its limit kernel as n grows.
	for _, kind := range []order.Kind{
		order.KindAscending, order.KindDescending,
		order.KindRoundRobin, order.KindCRR,
	} {
		kern, err := NamedKernel(kind)
		if err != nil {
			t.Fatal(err)
		}
		var prev float64 = math.Inf(1)
		for _, n := range []int{400, 25600} {
			p := permFor(kind, n)
			d, err := KernelDistance(p, kern, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n == 25600 {
				if d > prev+1e-9 {
					t.Errorf("%v: kernel distance grew from %v to %v", kind, prev, d)
				}
				if d > 0.05 {
					t.Errorf("%v: kernel distance %v at n=25600", kind, d)
				}
			}
			prev = d
		}
	}
}

func TestUniformPermutationConverges(t *testing.T) {
	kern, _ := NamedKernel(order.KindUniform)
	rng := stats.NewRNGFromSeed(5)
	p := order.Uniform(50000, rng)
	// A wider window (k = n/20) beats the √n default's sampling noise
	// for the genuinely random map while still satisfying k/n → 0.
	d, err := KernelDistance(p, kern, 8, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.05 {
		t.Fatalf("uniform perm kernel distance %v", d)
	}
}

func TestEstimateKernelBasics(t *testing.T) {
	p := order.Ascending(1000)
	// θ_A: position ⌈0.5n⌉ has label ~0.5n, so K(0.7; 0.5) ≈ 1 and
	// K(0.3; 0.5) ≈ 0.
	hi, err := EstimateKernel(p, 0.5, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := EstimateKernel(p, 0.5, 0.3, 0)
	if hi != 1 || lo != 0 {
		t.Fatalf("K(0.7;0.5)=%v K(0.3;0.5)=%v", hi, lo)
	}
	// Boundary u values must not panic.
	if _, err := EstimateKernel(p, 0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateKernel(p, 1, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, err := EstimateKernel(order.Perm{}, 0.5, 0.5, 0); err == nil {
		t.Fatal("empty perm accepted")
	}
	if _, err := EstimateKernel(p, -0.1, 0.5, 0); err == nil {
		t.Fatal("u < 0 accepted")
	}
	if _, err := EstimateKernel(p, 0.5, 1.5, 0); err == nil {
		t.Fatal("v > 1 accepted")
	}
}

func TestInadmissibleSequenceDetected(t *testing.T) {
	// The paper's counter-example: θ_n alternating between θ_A and θ_D
	// has no single limit kernel. The kernel distance to θ_A's kernel
	// stays bounded away from 0 along the θ_D subsequence.
	kernA, _ := NamedKernel(order.KindAscending)
	dAsc, err := KernelDistance(order.Ascending(4096), kernA, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	dDesc, err := KernelDistance(order.Descending(4096), kernA, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(dDesc > 0.4 && dDesc > dAsc) {
		t.Fatalf("alternating counter-example not detected: asc %v desc %v", dAsc, dDesc)
	}
}

func permFor(kind order.Kind, n int) order.Perm {
	switch kind {
	case order.KindAscending:
		return order.Ascending(n)
	case order.KindDescending:
		return order.Descending(n)
	case order.KindRoundRobin:
		return order.RoundRobin(n)
	case order.KindCRR:
		return order.ComplementaryRoundRobin(n)
	default:
		panic("unsupported")
	}
}

// This file implements the convergence-of-permutations framework of §5.1:
// empirical estimation of the probability kernel K_n(v; u) of eq. (27)
// from concrete permutations, admissibility diagnostics, and the
// measure-preservation check of Definition 4. It lets users verify that
// a custom permutation family converges to a limit map ξ before trusting
// Theorem 2's cost formula for it.

// EstimateKernel evaluates the eq. (27) window estimate of
// P(θ_n(⌈un⌉) < vn) for a single permutation: the fraction of positions
// in the k-neighborhood of ⌈un⌉ whose labels fall in [0, vn). The window
// size k defaults to ⌈√n⌉ when k <= 0 (any k → ∞ with k/n → 0 works;
// √n is the usual compromise).
func EstimateKernel(p order.Perm, u, v float64, k int) (float64, error) {
	n := len(p)
	if n == 0 {
		return 0, fmt.Errorf("model: empty permutation")
	}
	if u < 0 || u > 1 || v < 0 || v > 1 {
		return 0, fmt.Errorf("model: u, v must lie in [0,1], got (%v, %v)", u, v)
	}
	if k <= 0 {
		k = int(math.Ceil(math.Sqrt(float64(n))))
	}
	center := int(math.Ceil(u*float64(n))) - 1 // 0-based ⌈un⌉
	if center < 0 {
		center = 0
	}
	count, total := 0, 0
	for i := center - k; i <= center+k; i++ {
		if i < 0 || i >= n {
			continue
		}
		total++
		if float64(p[i]) < v*float64(n) {
			count++
		}
	}
	return float64(count) / float64(total), nil
}

// KernelDistance measures how far the empirical kernel of p is from a
// reference limit map's CDF K(v; u) = P(ξ(u) <= v), as the maximum
// absolute deviation over a grid of (u, v) points. Admissible sequences
// (Definition 5) drive this to 0 as n grows; tests use it to confirm
// the named orders converge to their §5.3 maps and that adversarial
// alternating sequences do not. The evaluation points are staggered off
// rational grid values (u = (iu+1/2)/grid, v = (iv+0.382)/grid) so they
// never coincide with the jump locations of the step-function kernels of
// the deterministic orders — weak convergence says nothing *at* a jump.
// k is the eq. (27) window half-width (<= 0 selects ⌈√n⌉).
func KernelDistance(p order.Perm, kernel func(v, u float64) float64, grid, k int) (float64, error) {
	if grid < 2 {
		grid = 8
	}
	var worst float64
	for iu := 0; iu < grid; iu++ {
		u := (float64(iu) + 0.5) / float64(grid)
		for iv := 0; iv < grid; iv++ {
			v := (float64(iv) + 0.382) / float64(grid)
			got, err := EstimateKernel(p, u, v, k)
			if err != nil {
				return 0, err
			}
			if d := math.Abs(got - kernel(v, u)); d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// NamedKernel returns the limit kernel K(v; u) = P(ξ(u) <= v) of an
// admissible named order (§5.3).
func NamedKernel(kind order.Kind) (func(v, u float64) float64, error) {
	step := func(x float64) float64 {
		if x >= 0 {
			return 1
		}
		return 0
	}
	switch kind {
	case order.KindAscending:
		return func(v, u float64) float64 { return step(v - u) }, nil
	case order.KindDescending:
		return func(v, u float64) float64 { return step(v - (1 - u)) }, nil
	case order.KindRoundRobin:
		return func(v, u float64) float64 {
			return (step(v-(1-u)/2) + step(v-(1+u)/2)) / 2
		}, nil
	case order.KindCRR:
		return func(v, u float64) float64 {
			return (step(v-u/2) + step(v-(1-u/2))) / 2
		}, nil
	case order.KindUniform:
		return func(v, u float64) float64 {
			return math.Max(0, math.Min(1, v))
		}, nil
	default:
		return nil, fmt.Errorf("model: no limit kernel for order %v", kind)
	}
}

// CheckMeasurePreserving verifies Definition 4 for a kernel on S = [0,1]:
// E[K(v; U)] must equal v for all v. It returns the maximum deviation
// over a grid (quadrature over u with `panels` midpoint panels).
func CheckMeasurePreserving(kernel func(v, u float64) float64, grid, panels int) float64 {
	if grid < 2 {
		grid = 16
	}
	if panels < 16 {
		panels = 1024
	}
	var worst float64
	for iv := 0; iv <= grid; iv++ {
		v := float64(iv) / float64(grid)
		var mean float64
		for k := 0; k < panels; k++ {
			u := (float64(k) + 0.5) / float64(panels)
			mean += kernel(v, u)
		}
		mean /= float64(panels)
		if d := math.Abs(mean - v); d > worst {
			worst = d
		}
	}
	return worst
}
