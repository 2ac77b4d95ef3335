package listing

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
)

func TestGallopSearch(t *testing.T) {
	list := []int32{2, 4, 4, 8, 16, 32, 64}
	// (value 4 twice is fine for the search even though adjacency lists
	// are duplicate-free: the contract is only "smallest i >= lo with
	// list[i] >= v".)
	cases := []struct {
		lo   int
		v    int32
		want int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 8, 3}, {0, 9, 4},
		{0, 64, 6}, {0, 65, 7}, {3, 2, 3}, {5, 40, 6}, {7, 0, 7},
	}
	for _, c := range cases {
		if got := gallopSearch(list, c.lo, c.v); got != c.want {
			t.Errorf("gallopSearch(lo=%d, v=%d) = %d, want %d", c.lo, c.v, got, c.want)
		}
	}
	// Exhaustive cross-check against linear scan.
	for lo := 0; lo <= len(list); lo++ {
		for v := int32(0); v <= 70; v++ {
			want := lo
			for want < len(list) && list[want] < v {
				want++
			}
			if got := gallopSearch(list, lo, v); got != want {
				t.Fatalf("gallopSearch(lo=%d, v=%d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// randomSortedList builds an ascending duplicate-free list from raw fuzz
// material, the shape adjacency lists have.
func randomSortedList(raw []byte, mod int32) []int32 {
	seen := make(map[int32]bool)
	for _, b := range raw {
		seen[int32(b)%mod] = true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMergeCompsMatchesActualMerge(t *testing.T) {
	// The closed form must equal the instrumented two-pointer merge on
	// every input — this is what lets the gallop and stamp-probe routes
	// report the merge scan's Comparisons.
	f := func(rawA, rawB []byte) bool {
		a := randomSortedList(rawA, 50)
		b := randomSortedList(rawB, 50)
		var matches int64
		actual := intersect(a, b, func(int32) { matches++ })
		return mergeComps(a, b, matches) == actual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Hand-picked boundary cases.
	for _, c := range []struct{ a, b []int32 }{
		{nil, nil},
		{[]int32{1}, nil},
		{[]int32{1, 3}, []int32{2}},
		{[]int32{1, 2, 3}, []int32{3}},
		{[]int32{5}, []int32{1, 2, 3}},
		{[]int32{1, 4}, []int32{2, 4}},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}},
	} {
		var matches int64
		actual := intersect(c.a, c.b, func(int32) { matches++ })
		if got := mergeComps(c.a, c.b, matches); got != actual {
			t.Errorf("mergeComps(%v, %v) = %d, merge did %d", c.a, c.b, got, actual)
		}
	}
}

func TestGallopIntersectMatchesMerge(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		a := randomSortedList(rawA, 60)
		b := randomSortedList(rawB, 60)
		var viaMerge, viaGallop []int32
		intersect(a, b, func(v int32) { viaMerge = append(viaMerge, v) })
		gallopIntersect(a, b, func(v int32) { viaGallop = append(viaGallop, v) })
		if len(viaMerge) != len(viaGallop) {
			return false
		}
		for i := range viaMerge {
			if viaMerge[i] != viaGallop[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestArenaStampAndMembership(t *testing.T) {
	a := getArena(10)
	defer putArena(a)
	a.stamp([]int32{1, 4, 7})
	for v := int32(0); v < 10; v++ {
		want := v == 1 || v == 4 || v == 7
		if a.member(v) != want {
			t.Errorf("member(%d) = %v after stamp {1,4,7}", v, a.member(v))
		}
	}
	// Re-stamping must invalidate the previous stamp without clearing.
	a.stamp([]int32{2})
	if a.member(1) || !a.member(2) {
		t.Error("re-stamp did not invalidate the previous epoch")
	}
	// Wrap path: force the epoch counter over the uint32 edge.
	a.cur = ^uint32(0) - 1
	a.stamp([]int32{3})
	a.stamp([]int32{5}) // this stamp wraps cur to 0 -> clears -> cur = 1
	if a.cur != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.cur)
	}
	if a.member(3) || !a.member(5) {
		t.Error("membership wrong across epoch wrap")
	}
	// ensure() must grow without losing the invariant.
	a.ensure(100)
	if a.member(50) {
		t.Error("grown arena reports stale membership")
	}
}

// mergeReference selects the plain two-pointer merge for every SEI
// window: the reference the adaptive path is checked against.
func mergeReference() Option {
	return func(c *runConfig) { c.mergeRef = true }
}

// sequence runs m serially and returns its triangles in visit order.
func sequence(o *digraph.Oriented, m Method, opts ...Option) ([]triKey, Stats) {
	var tris []triKey
	s := Run(o, m, func(x, y, z int32) { tris = append(tris, triKey{x, y, z}) }, opts...)
	return tris, s
}

// sortedSequence runs m on workers goroutines and returns its triangles
// sorted, since a parallel visit order is not deterministic.
func sortedSequence(o *digraph.Oriented, m Method, workers int, opts ...Option) ([]triKey, Stats) {
	var mu sync.Mutex
	var tris []triKey
	s := RunParallel(o, m, workers, func(x, y, z int32) {
		mu.Lock()
		tris = append(tris, triKey{x, y, z})
		mu.Unlock()
	}, opts...)
	sort.Slice(tris, func(i, j int) bool {
		a, b := tris[i], tris[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return tris, s
}

// referenceWorkloads are the graphs the adaptive path is compared with
// the merge reference on: ER and the paper's two truncation regimes.
func referenceWorkloads(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	p := degseq.StandardPareto(1.5)
	er, err := gen.ErdosRenyi(600, 3600, rngFor(41))
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := gen.ParetoGraph(p, 600, degseq.RootTruncation, rngFor(42))
	if err != nil {
		t.Fatal(err)
	}
	linear, _, err := gen.ParetoGraph(p, 600, degseq.LinearTruncation, rngFor(43))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.Graph
	}{{"er", er}, {"pareto-root", root}, {"pareto-linear", linear}}
}

func TestAdaptiveMatchesMergeReferenceSequence(t *testing.T) {
	// Stronger than set equality: the adaptive path must report the
	// merge reference's triangles in the same order (the paper's methods
	// define a canonical visit order; the intersection must not perturb
	// it, or cancelled prefixes and streaming consumers would diverge),
	// with every Stats field equal, under every method × order.
	for _, wl := range referenceWorkloads(t) {
		for _, kind := range order.Kinds {
			o := orientBy(t, wl.g, kind, 2)
			for _, m := range Methods {
				ref, refStats := sequence(o, m, mergeReference())
				got, s := sequence(o, m)
				if s != refStats {
					t.Fatalf("%s order %v method %v: Stats %+v != merge reference %+v",
						wl.name, kind, m, s, refStats)
				}
				if !slices.Equal(got, ref) {
					t.Fatalf("%s order %v method %v: triangle sequence differs from the merge reference",
						wl.name, kind, m)
				}
			}
		}
	}
}

// fingerprint runs m on workers goroutines and returns an
// order-independent digest of the triangles visited: the wrapping sum of
// a 64-bit mix of each one. Two different triangle multisets collide
// only with negligible probability, and no sort or lock is needed to
// compare parallel runs, whose visit order is not deterministic.
func fingerprint(o *digraph.Oriented, m Method, workers int, opts ...Option) (uint64, Stats) {
	var sum atomic.Uint64
	s := RunParallel(o, m, workers, func(x, y, z int32) {
		h := uint64(x)<<42 ^ uint64(y)<<21 ^ uint64(z)
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		sum.Add(h ^ h>>31)
	}, opts...)
	return sum.Load(), s
}

func TestAdaptiveMatchesMergeReferenceAcrossWorkers(t *testing.T) {
	// Stats and the triangle multiset must equal the serial merge
	// reference's at every worker count, under every method × order.
	for _, wl := range referenceWorkloads(t) {
		for _, kind := range order.Kinds {
			o := orientBy(t, wl.g, kind, 2)
			for _, m := range Methods {
				refPrint, refStats := fingerprint(o, m, 1, mergeReference())
				if refStats.Triangles == 0 {
					t.Fatalf("%s: test graph has no triangles", wl.name)
				}
				for _, workers := range []int{1, 2, 8} {
					print, s := fingerprint(o, m, workers)
					if s != refStats {
						t.Fatalf("%s order %v method %v workers %d: Stats %+v != serial merge %+v",
							wl.name, kind, m, workers, s, refStats)
					}
					if print != refPrint {
						t.Fatalf("%s order %v method %v workers %d: triangle set differs from the serial merge",
							wl.name, kind, m, workers)
					}
				}
			}
		}
	}
}

// fuzzGraph decodes arbitrary fuzz bytes into a small simple graph:
// byte 0 picks n in [1, 24], each following byte pair is an edge
// (u, v) mod n with self-loops dropped and duplicates deduped.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		data = []byte{3}
	}
	n := int(data[0]%24) + 1
	var edges []graph.Edge
	for i := 1; i+1 < len(data); i += 2 {
		u := int32(data[i]) % int32(n)
		v := int32(data[i+1]) % int32(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(n, edges, true)
	if err != nil {
		panic(err) // decoder guarantees valid input
	}
	return g
}

func FuzzKernelsAgainstBruteForce(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 1, 2})                   // K3
	f.Add([]byte{1})                                     // single node, no edges
	f.Add([]byte{24, 0, 1, 1, 2, 2, 3, 3, 0})            // C4, triangle-free
	f.Add([]byte{5, 0, 1, 0, 2, 0, 3, 0, 4})             // star
	f.Add([]byte{4, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3}) // K4
	f.Add([]byte{10, 1, 2, 2, 3, 1, 3, 1, 1, 200, 7, 255, 255})
	// Dense and skewed material: K5 plus a pendant (long windows, stamp
	// probes), and a hub star with a triangle through the hub (short
	// windows against the hub's long list, gallops).
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5})
	f.Add([]byte{12, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		var brute []triKey
		BruteForce(g, func(x, y, z int32) { brute = append(brute, triKey{x, y, z}) })
		kinds := []order.Kind{order.KindAscending, order.KindDescending, order.KindUniform}
		for _, kind := range kinds {
			o := orientBy(t, g, kind, uint64(len(data)))
			// Map the brute-force set through the relabeling.
			want := make(map[triKey]bool, len(brute))
			for _, tri := range brute {
				k := triKey{o.Rank(tri[0]), o.Rank(tri[1]), o.Rank(tri[2])}
				sort.Slice(k[:], func(i, j int) bool { return k[i] < k[j] })
				want[k] = true
			}
			for _, m := range Methods {
				got, s := sequence(o, m)
				seen := make(map[triKey]bool, len(got))
				for _, k := range got {
					if seen[k] {
						t.Fatalf("order %v method %v: duplicate %v", kind, m, k)
					}
					if !(k[0] < k[1] && k[1] < k[2]) {
						t.Fatalf("order %v method %v: unsorted %v", kind, m, k)
					}
					if !want[k] {
						t.Fatalf("order %v method %v: %v is not a triangle", kind, m, k)
					}
					seen[k] = true
				}
				if int64(len(got)) != s.Triangles || len(got) != len(want) {
					t.Fatalf("order %v method %v: %d triangles (stats %d), brute force %d",
						kind, m, len(got), s.Triangles, len(want))
				}
				ref, refStats := sequence(o, m, mergeReference())
				if s != refStats || !slices.Equal(got, ref) {
					t.Fatalf("order %v method %v: Stats %+v / %d triangles, merge reference %+v / %d",
						kind, m, s, len(got), refStats, len(ref))
				}
			}
		}
	})
}
