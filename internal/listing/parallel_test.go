package listing

import (
	"sync"
	"sync/atomic"
	"testing"

	"trilist/internal/order"
)

// The tests below check the parallel sweep (Run with WithWorkers) on
// its own terms: serial Stats, the exact triangle set with no repeats,
// a concurrent atomic visitor, and worker counts at the edges.

func TestRunParallelMatchesSerial(t *testing.T) {
	g := randomTestGraph(t, 3, 300, 3000)
	for _, kind := range []order.Kind{order.KindDescending, order.KindRoundRobin} {
		o := orientBy(t, g, kind, 1)
		for _, m := range Methods {
			serial := Run(o, m, nil)
			for _, workers := range []int{1, 2, 3, 8} {
				par := Run(o, m, nil, WithWorkers(workers))
				if par != serial {
					t.Fatalf("%v+%v workers=%d: parallel %+v != serial %+v",
						m, kind, workers, par, serial)
				}
			}
		}
	}
}

func TestRunParallelTriangleSetIdentical(t *testing.T) {
	g := randomTestGraph(t, 9, 200, 1800)
	o := orientBy(t, g, order.KindDescending, 1)
	ref, _ := collect(o, E1)
	var mu sync.Mutex
	got := make(map[triKey]bool)
	Run(o, E1, func(x, y, z int32) {
		mu.Lock()
		defer mu.Unlock()
		k := triKey{x, y, z}
		if got[k] {
			t.Errorf("parallel run reported %v twice", k)
		}
		got[k] = true
	}, WithWorkers(4))
	if len(got) != len(ref) {
		t.Fatalf("parallel found %d triangles, serial %d", len(got), len(ref))
	}
	for k := range ref {
		if !got[k] {
			t.Fatalf("parallel missed %v", k)
		}
	}
}

func TestRunParallelAtomicVisitor(t *testing.T) {
	// Counting with an atomic visitor across many workers.
	g := randomTestGraph(t, 12, 400, 5000)
	o := orientBy(t, g, order.KindUniform, 2)
	want := Run(o, T2, nil).Triangles
	var count int64
	s := Run(o, T2, func(x, y, z int32) {
		atomic.AddInt64(&count, 1)
	}, WithWorkers(6))
	if count != want || s.Triangles != want {
		t.Fatalf("atomic count %d, stats %d, want %d", count, s.Triangles, want)
	}
}

func TestRunParallelEdgeCases(t *testing.T) {
	g := randomTestGraph(t, 4, 5, 6)
	o := orientBy(t, g, order.KindAscending, 1)
	want := Run(o, T1, nil).Triangles
	// Zero and one worker (both serial), and workers exceeding n.
	for _, w := range []int{0, 1, 100} {
		if got := Run(o, T1, nil, WithWorkers(w)).Triangles; got != want {
			t.Fatalf("workers=%d: %d triangles, want %d", w, got, want)
		}
	}
}
