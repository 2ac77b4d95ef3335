package server

import (
	"sync"
	"testing"

	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

func regTestGraph(t testing.TB, n int, m int64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistryEvictsLRUUnderByteBudget(t *testing.T) {
	g1 := regTestGraph(t, 200, 1000, 1)
	g2 := regTestGraph(t, 200, 1000, 2)
	g3 := regTestGraph(t, 200, 1000, 3)
	// Budget holds exactly two resident graphs.
	r := NewRegistry(2*graphBytes(g1)+16, 1, nil)

	r.Add("g1", g1)
	r.Add("g2", g2)
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	// Touch g1 so g2 becomes the LRU victim.
	if _, ok := r.Get("g1"); !ok {
		t.Fatal("g1 missing before eviction")
	}
	r.Add("g3", g3)
	if _, ok := r.Get("g2"); ok {
		t.Fatal("g2 survived eviction")
	}
	if _, ok := r.Get("g1"); !ok {
		t.Fatal("g1 evicted despite being recently used")
	}
	if _, ok := r.Get("g3"); !ok {
		t.Fatal("g3 not resident after Add")
	}
	if r.UsedBytes() > 2*graphBytes(g1)+16 {
		t.Fatalf("used %d bytes exceeds budget", r.UsedBytes())
	}
}

func TestRegistryNeverEvictsMostRecent(t *testing.T) {
	g := regTestGraph(t, 500, 5000, 1)
	// Budget far below one graph: the sole entry must still serve.
	r := NewRegistry(16, 1, nil)
	r.Add("big", g)
	if _, ok := r.Get("big"); !ok {
		t.Fatal("over-budget sole graph was evicted")
	}
	// A second add displaces it (the newcomer is now most recent).
	r.Add("big2", regTestGraph(t, 500, 5000, 2))
	if _, ok := r.Get("big"); ok {
		t.Fatal("old over-budget graph survived a newer arrival")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
}

func TestRegistryOrientationCache(t *testing.T) {
	r := NewRegistry(1<<30, 1, nil)
	r.Add("g", regTestGraph(t, 300, 2000, 7))
	before := r.UsedBytes()

	o1, hit, err := r.Oriented("g", order.KindDescending, 0, nil)
	if err != nil || hit {
		t.Fatalf("first orientation: hit=%v err=%v", hit, err)
	}
	if r.UsedBytes() <= before {
		t.Fatal("orientation bytes not accounted")
	}
	o2, hit, err := r.Oriented("g", order.KindDescending, 0, nil)
	if err != nil || !hit {
		t.Fatalf("second orientation: hit=%v err=%v", hit, err)
	}
	if o1 != o2 {
		t.Fatal("cache returned a different orientation object")
	}
	// Different order kinds occupy distinct slots.
	if _, hit, _ := r.Oriented("g", order.KindAscending, 0, nil); hit {
		t.Fatal("ascending orientation served from descending slot")
	}
	// Seed is normalized away for non-uniform orders...
	if _, hit, _ := r.Oriented("g", order.KindAscending, 99, nil); !hit {
		t.Fatal("non-uniform orders must share a slot across seeds")
	}
	// ...but distinguishes uniform orders.
	u1, hit, _ := r.Oriented("g", order.KindUniform, 1, nil)
	if hit {
		t.Fatal("uniform seed 1 unexpectedly cached")
	}
	u2, hit, _ := r.Oriented("g", order.KindUniform, 2, nil)
	if hit {
		t.Fatal("uniform seeds 1 and 2 wrongly share a slot")
	}
	// The seed reaches the build: the two uniform orders differ.
	if testkit.OrientationsEqual(u1, u2) {
		t.Fatal("uniform seeds 1 and 2 built the same orientation")
	}
	if _, hit, _ := r.Oriented("g", order.KindUniform, 1, nil); !hit {
		t.Fatal("uniform seed 1 not cached on repeat")
	}
	if snaps := r.Snapshots(); len(snaps) != 1 || snaps[0].Orientations != 4 {
		t.Fatalf("snapshot = %+v, want 1 graph with 4 orientations", snaps)
	}
}

func TestRegistryOrientedUnknownGraph(t *testing.T) {
	r := NewRegistry(1<<30, 1, nil)
	if _, _, err := r.Oriented("nope", order.KindDescending, 0, nil); err == nil {
		t.Fatal("orientation of unregistered graph succeeded")
	}
}

func TestRegistryReAddRefreshesRecency(t *testing.T) {
	g1 := regTestGraph(t, 200, 1000, 1)
	g2 := regTestGraph(t, 200, 1000, 2)
	r := NewRegistry(2*graphBytes(g1)+16, 1, nil)
	if !r.Add("g1", g1) {
		t.Fatal("first Add returned false")
	}
	r.Add("g2", g2)
	// Re-adding g1 is a no-op that refreshes recency.
	if r.Add("g1", g1) {
		t.Fatal("re-Add returned true")
	}
	r.Add("g3", regTestGraph(t, 200, 1000, 3))
	if _, ok := r.Get("g1"); !ok {
		t.Fatal("re-added g1 was evicted")
	}
	if _, ok := r.Get("g2"); ok {
		t.Fatal("g2 survived eviction")
	}
}

// TestRegistryParallelBuildMatchesSerial: registry rebuilds with a
// multi-worker budget cache the same orientation bytes as a serial
// registry — the worker knob must never leak into cached results.
func TestRegistryParallelBuildMatchesSerial(t *testing.T) {
	g := regTestGraph(t, 400, 3000, 11)
	serial := NewRegistry(1<<30, 1, nil)
	parallel := NewRegistry(1<<30, 8, nil)
	serial.Add("g", g)
	parallel.Add("g", g)
	for _, kind := range order.Kinds {
		os, _, err := serial.Oriented("g", kind, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		op, _, err := parallel.Oriented("g", kind, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !testkit.OrientationsEqual(op, os) {
			t.Fatalf("kind %v: parallel registry build differs from serial", kind)
		}
	}
}

// TestRegistryRecyclesDuplicateBuilds: when concurrent cache misses
// race on one key, every loser's build is dropped and all callers get
// the single cached orientation.
func TestRegistryRecyclesDuplicateBuilds(t *testing.T) {
	g := regTestGraph(t, 300, 2000, 13)
	r := NewRegistry(1<<30, 2, nil)
	r.Add("g", g)
	const racers = 8
	results := make([]*digraph.Oriented, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, _, err := r.Oriented("g", order.KindDescending, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = o
		}(i)
	}
	wg.Wait()
	cached, hit, err := r.Oriented("g", order.KindDescending, 0, nil)
	if err != nil || !hit {
		t.Fatalf("post-race lookup: hit=%v err=%v", hit, err)
	}
	for i, o := range results {
		if o != cached {
			t.Fatalf("racer %d got a non-cached orientation", i)
		}
	}
	if snaps := r.Snapshots(); len(snaps) != 1 || snaps[0].Orientations != 1 {
		t.Fatalf("snapshot = %+v, want 1 graph with 1 orientation", snaps)
	}
}
