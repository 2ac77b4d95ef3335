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

// Ranges splits [0, n) into min(workers, n) near-equal contiguous
// ranges (at least one) and runs body(lo, hi) on each concurrently,
// blocking until all return. Range s of p is [n*s/p, n*(s+1)/p),
// fixed by (n, workers) alone. With one range, body runs inline.
func Ranges(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := max(min(workers, n), 1)
	if p == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < p; s++ {
		lo, hi := n*s/p, n*(s+1)/p
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lo, hi)
		}()
	}
	wg.Wait()
}
