package extmem

import (
	"context"
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func orientedTestGraph(t testing.TB, seed uint64, n int, m int64) *digraph.Oriented {
	t.Helper()
	if max := int64(n) * int64(n-1) / 2; m > max {
		m = max
	}
	g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := digraph.Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRunMatchesInMemoryAcrossPartitionCounts(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	want := listing.Run(o, listing.E1, nil).Triangles
	if want == 0 {
		t.Fatal("test graph has no triangles")
	}
	for _, parts := range []int{1, 2, 3, 5, 8, 200, 1000} {
		store := NewMemStore()
		res, err := Run(context.Background(), o, parts, store, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", parts, err)
		}
		if res.Triangles != want {
			t.Errorf("P=%d: %d triangles, want %d", parts, res.Triangles, want)
		}
		effP := parts
		if effP > o.NumNodes() {
			effP = o.NumNodes()
		}
		wantPasses := int64(effP) * int64(effP+1) * int64(effP+2) / 6
		if res.Passes != wantPasses {
			t.Errorf("P=%d: %d passes, want %d", parts, res.Passes, wantPasses)
		}
		store.Close()
	}
}

func TestRunTriangleSetMatches(t *testing.T) {
	o := orientedTestGraph(t, 13, 120, 1200)
	ref := make(map[[3]int32]bool)
	listing.Run(o, listing.T1, func(x, y, z int32) { ref[[3]int32{x, y, z}] = true })
	store := NewMemStore()
	defer store.Close()
	got := make(map[[3]int32]bool)
	_, err := Run(context.Background(), o, 4, store, func(x, y, z int32) {
		k := [3]int32{x, y, z}
		if got[k] {
			t.Errorf("triangle %v reported twice", k)
		}
		if !(x < y && y < z) {
			t.Errorf("unsorted triangle %v", k)
		}
		got[k] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("got %d triangles, want %d", len(got), len(ref))
	}
	for k := range ref {
		if !got[k] {
			t.Fatalf("missed triangle %v", k)
		}
	}
}

func TestIOGrowsWithPartitions(t *testing.T) {
	o := orientedTestGraph(t, 21, 400, 6000)
	var prevRead int64
	for _, parts := range []int{1, 2, 4, 8} {
		store := NewMemStore()
		res, err := Run(context.Background(), o, parts, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.IO.ArcsWritten != o.NumEdges() {
			t.Errorf("P=%d: wrote %d arcs, want m=%d", parts, res.IO.ArcsWritten, o.NumEdges())
		}
		if parts > 1 && res.IO.ArcsRead < prevRead {
			t.Errorf("P=%d: arcs read %d fell below P/2 level %d", parts, res.IO.ArcsRead, prevRead)
		}
		prevRead = res.IO.ArcsRead
		store.Close()
	}
}

func TestRunErrorsAndEdgeCases(t *testing.T) {
	o := orientedTestGraph(t, 3, 10, 15)
	if _, err := Run(context.Background(), o, 0, NewMemStore(), nil); err == nil {
		t.Fatal("P=0 accepted")
	}
	// Empty graph.
	eg, _ := graph.FromEdges(0, nil, false)
	eo, _ := digraph.Orient(eg, nil)
	res, err := Run(context.Background(), eo, 3, NewMemStore(), nil)
	if err != nil || res.Triangles != 0 {
		t.Fatalf("empty graph: %+v, %v", res, err)
	}
	// Closed store surfaces the error.
	st := NewMemStore()
	st.Close()
	if _, err := Run(context.Background(), o, 2, st, nil); err == nil {
		t.Fatal("closed store accepted")
	}
}

func TestParetoWorkload(t *testing.T) {
	// Heavy-tailed end-to-end: the paper's workload through the
	// partitioned lister.
	p := degseq.StandardPareto(1.7)
	g, _, err := gen.ParetoGraph(p, 5000, degseq.RootTruncation, stats.NewRNGFromSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	rank, err := order.Rank(g, order.KindDescending, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, err := digraph.Orient(g, rank)
	if err != nil {
		t.Fatal(err)
	}
	want := listing.Run(o, listing.T1, nil).Triangles
	store := NewMemStore()
	defer store.Close()
	res, err := Run(context.Background(), o, 6, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("found %d, want %d", res.Triangles, want)
	}
}

func BenchmarkExtMemPartitions(b *testing.B) {
	o := orientedTestGraph(b, 5, 2000, 30000)
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("P=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				store := NewMemStore()
				if _, err := Run(context.Background(), o, parts, store, nil); err != nil {
					b.Fatal(err)
				}
				store.Close()
			}
		})
	}
}
