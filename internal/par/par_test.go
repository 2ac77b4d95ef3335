package par

import (
	"sync/atomic"
	"testing"
)

func TestShardsCoverDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 200} {
			hits := make([]int32, n)
			Ranges(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Fatalf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d, want >= 1", got)
	}
}
