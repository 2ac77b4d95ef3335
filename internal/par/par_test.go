package par

import (
	"sync/atomic"
	"testing"
)

func TestShardsCoverDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, w := range []int{0, 1, 2, 3, 8, 200} {
			hits := make([]int32, n)
			Shards(n, w, func(_, lo, hi int) {
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

func TestShardCountMatchesShards(t *testing.T) {
	for _, n := range []int{1, 5, 64} {
		for _, w := range []int{1, 2, 8, 100} {
			want := ShardCount(n, w)
			var calls int32
			maxShard := int32(-1)
			Shards(n, w, func(s, _, _ int) {
				atomic.AddInt32(&calls, 1)
				for {
					cur := atomic.LoadInt32(&maxShard)
					if int32(s) <= cur || atomic.CompareAndSwapInt32(&maxShard, cur, int32(s)) {
						break
					}
				}
			})
			if int(calls) != want {
				t.Fatalf("n=%d w=%d: %d shard calls, ShardCount says %d", n, w, calls, want)
			}
			if int(maxShard) != want-1 {
				t.Fatalf("n=%d w=%d: max shard index %d, want %d", n, w, maxShard, want-1)
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
