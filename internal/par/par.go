// Package par is the deterministic-parallelism substrate of the
// chunk-parallel parsers (ingest) and the planner's candidate grid.
// Work is split into contiguous index ranges fixed by (n, workers)
// alone, each range writes only slots it owns, and reductions merge
// shard results in shard order — so results are bitwise identical at
// every worker count and safe under the race detector by construction.
//
// All helpers run inline on the caller's goroutine when workers <= 1
// (or the input is too small to split), so serial callers pay no
// goroutine or synchronization cost.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves a requested worker count: values below 1 select
// GOMAXPROCS.
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ShardCount returns the number of shards Ranges and Shards will use
// for n items and the requested worker count: min(workers, n), at
// least 1. Callers size per-shard accumulators with it.
func ShardCount(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// shardBounds returns the half-open range of shard s out of p over n
// items. Boundaries depend only on (n, p), never on scheduling.
func shardBounds(n, p, s int) (lo, hi int) {
	return n * s / p, n * (s + 1) / p
}

// Ranges splits [0, n) into ShardCount(n, workers) near-equal
// contiguous ranges and runs body(lo, hi) on each concurrently,
// blocking until all return. With one shard, body runs inline.
func Ranges(n, workers int, body func(lo, hi int)) {
	Shards(n, workers, func(_, lo, hi int) { body(lo, hi) })
}

// Shards is Ranges passing the shard index as well, for per-shard
// accumulators: body(s, lo, hi) with 0 <= s < ShardCount(n, workers).
// Results must not depend on s — only scratch reuse and reduction
// slots may.
func Shards(n, workers int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	p := ShardCount(n, workers)
	if p == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		lo, hi := shardBounds(n, p, s)
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			body(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
}
