package listing

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"trilist/internal/order"
)

// workerCounts are the WithWorkers values the sweep is checked at: the
// two serial spellings (0 and 1) and two parallel ones.
var workerCounts = []int{0, 1, 2, 8}

// TestRunCtxWorkerTable is the worker-invariance wall of the one sweep
// loop. Under every order × method and at every worker count, Stats
// must be bitwise equal to the serial Run's and the triangle multiset
// must match its fingerprint; at 0 and 1 workers the visit sequence
// must be Run's exactly. The graphs cover a sweep of more than 8
// blocks (every worker busy), and a 5-node graph where workers exceed
// both blocks and nodes.
func TestRunCtxWorkerTable(t *testing.T) {
	for _, wl := range []struct {
		name string
		n, m int
	}{{"blocks", 8*cancelBlock + 300, 30000}, {"tiny", 5, 6}} {
		g := randomTestGraph(t, 3, wl.n, wl.m)
		for _, kind := range order.Kinds {
			o := orientBy(t, g, kind, 1)
			for _, m := range Methods {
				ref, refStats := sequence(o, m)
				var refPrint uint64
				for _, k := range ref {
					refPrint += triHash(k[0], k[1], k[2])
				}
				for _, workers := range workerCounts {
					print, s := fingerprint(o, m, workers)
					if s != refStats {
						t.Fatalf("%s %v %v workers=%d: Stats %+v != serial %+v",
							wl.name, kind, m, workers, s, refStats)
					}
					if print != refPrint {
						t.Fatalf("%s %v %v workers=%d: triangle set differs from the serial run",
							wl.name, kind, m, workers)
					}
					if workers > 1 {
						continue
					}
					got, _ := sequence(o, m, WithWorkers(workers))
					if !slices.Equal(got, ref) {
						t.Fatalf("%s %v %v workers=%d: visit sequence differs from Run's",
							wl.name, kind, m, workers)
					}
				}
			}
		}
	}
}

// TestRunCtxMatchesRun asserts that an uncancelled RunCtx produces
// Stats bitwise identical to Run's and a nil error at every worker
// count, for every method family.
func TestRunCtxMatchesRun(t *testing.T) {
	g := randomTestGraph(t, 5, 3*cancelBlock, 9000)
	o := orientBy(t, g, order.KindDescending, 1)
	for _, m := range []Method{T1, T2, E1, E4, L1, L5} {
		want := Run(o, m, nil)
		for _, workers := range workerCounts {
			got, err := RunCtx(context.Background(), o, m, nil, WithWorkers(workers))
			if err != nil {
				t.Fatalf("%v workers=%d: RunCtx error: %v", m, workers, err)
			}
			if got != want {
				t.Fatalf("%v workers=%d: RunCtx %+v != Run %+v", m, workers, got, want)
			}
		}
	}
}

// TestRunCtxAlreadyCancelled asserts that an expired context stops the
// sweep before any triangle is reported, at every worker count.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	g := randomTestGraph(t, 6, 200, 1500)
	o := orientBy(t, g, order.KindDescending, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{T1, E1, L1} {
		for _, workers := range workerCounts {
			var visits int64
			s, err := RunCtx(ctx, o, m, func(x, y, z int32) { atomic.AddInt64(&visits, 1) },
				WithWorkers(workers))
			if err != context.Canceled {
				t.Fatalf("%v workers=%d: err = %v, want context.Canceled", m, workers, err)
			}
			if s.Triangles != 0 || visits != 0 {
				t.Fatalf("%v workers=%d: cancelled run reported %d triangles (%d visits)",
					m, workers, s.Triangles, visits)
			}
		}
	}
}

// TestRunCtxMidSweepCancellation cancels from inside the visitor at
// every worker count and checks the partial result: the sweep stops
// early with context.Canceled, its count matches the visitor's tally,
// and a serial run's visits are a prefix of Run's sequence. The graph
// gives every worker at 8 workers three blocks and puts the first
// triangles in each worker's first block, so a checkpoint always
// follows the cancel.
func TestRunCtxMidSweepCancellation(t *testing.T) {
	g := randomTestGraph(t, 7, 24*cancelBlock, 20*24*cancelBlock)
	o := orientBy(t, g, order.KindDescending, 1)
	ref, refStats := sequence(o, E1)
	if refStats.Triangles < 100 {
		t.Fatalf("test graph too sparse: %d triangles", refStats.Triangles)
	}
	for _, workers := range workerCounts {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var got []triKey
		s, err := RunCtx(ctx, o, E1, func(x, y, z int32) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, triKey{x, y, z})
			if len(got) == 5 {
				cancel()
			}
		}, WithWorkers(workers))
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if s.Triangles != int64(len(got)) {
			t.Fatalf("workers=%d: partial stats report %d triangles, visitor saw %d",
				workers, s.Triangles, len(got))
		}
		if s.Triangles >= refStats.Triangles {
			t.Fatalf("workers=%d: cancelled sweep still listed all %d triangles", workers, s.Triangles)
		}
		if workers <= 1 && !slices.Equal(got, ref[:len(got)]) {
			t.Fatalf("workers=%d: cancelled serial sweep is not a prefix of Run's sequence", workers)
		}
	}
}

// TestRunCtxPartialNeverExceedsModel: even a cancelled run's meters obey
// the model bound (partial work <= partial volumes).
func TestRunCtxPartialNeverExceedsModel(t *testing.T) {
	g := randomTestGraph(t, 8, 3*cancelBlock, 9*cancelBlock)
	o := orientBy(t, g, order.KindDescending, 1)
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	s, _ := RunCtx(ctx, o, E1, func(x, y, z int32) {
		if atomic.AddInt64(&n, 1) == 3 {
			cancel()
		}
	})
	if s.Comparisons > s.LocalScan+s.RemoteScan {
		t.Fatalf("partial comparisons %d exceed partial model volume %d",
			s.Comparisons, s.LocalScan+s.RemoteScan)
	}
}

// BenchmarkRunCtxWorkers times one E1 sweep at 1, 2 and 4 workers.
func BenchmarkRunCtxWorkers(b *testing.B) {
	g := randomTestGraph(b, 5, 3000, 60000)
	o := orientBy(b, g, order.KindDescending, 1)
	for _, w := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "serial", 2: "2workers", 4: "4workers"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(o, E1, nil, WithWorkers(w))
			}
		})
	}
}
