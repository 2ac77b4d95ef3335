package extmem

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

// wallGraph is one workload of the determinism wall: the undirected
// graph, its descending-degree rank (old label -> new label), and the
// oriented relabeled digraph the lister consumes.
type wallGraph struct {
	name string
	g    *graph.Graph
	rank []int32
	o    *digraph.Oriented
}

func wallGraphs(t *testing.T) []wallGraph {
	t.Helper()
	var out []wallGraph
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rank, err := order.Rank(g, order.KindDescending, nil)
		if err != nil {
			t.Fatalf("%s rank: %v", name, err)
		}
		o, err := digraph.Orient(g, rank)
		if err != nil {
			t.Fatalf("%s orient: %v", name, err)
		}
		out = append(out, wallGraph{name: name, g: g, rank: rank, o: o})
	}
	er, err := gen.ErdosRenyi(150, 1600, stats.NewRNGFromSeed(7))
	add("ER", er, err)
	// Ground truth below is BruteForce — Θ(n³) — so the heavy-tailed
	// graphs stay small enough for the race detector to chew through.
	pr, _, err := gen.ParetoGraph(degseq.StandardPareto(1.7), 400, degseq.RootTruncation, stats.NewRNGFromSeed(17))
	add("Pareto-root", pr, err)
	pl, _, err := gen.ParetoGraph(degseq.StandardPareto(2.1), 400, degseq.LinearTruncation, stats.NewRNGFromSeed(23))
	add("Pareto-linear", pl, err)
	return out
}

// runSeq runs the partitioned lister and returns the exact triangle
// sequence plus the Result.
func runSeq(t *testing.T, o *digraph.Oriented, parts int, store BlockStore, opts ...Option) ([][3]int32, Result) {
	t.Helper()
	var seq [][3]int32
	res, err := Run(context.Background(), o, parts, store, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
	}, opts...)
	if err != nil {
		t.Fatalf("Run(parts=%d): %v", parts, err)
	}
	return seq, res
}

// TestParallelDeterminismWall: across workers {1,2,8} × parts
// {1,2,3,5} × {ER, Pareto-root, Pareto-linear}, the triangle sequence
// and every Result field are byte-identical to the serial run, each
// triangle is emitted exactly once, and the triangle set matches brute
// force on the undirected graph.
func TestParallelDeterminismWall(t *testing.T) {
	for _, wg := range wallGraphs(t) {
		t.Run(wg.name, func(t *testing.T) {
			// Brute-force reference on the undirected graph, relabeled
			// through the rank so sets are comparable.
			ref := make(map[[3]int32]bool)
			testkit.BruteForce(wg.g, func(x, y, z int32) {
				a, b, c := wg.rank[x], wg.rank[y], wg.rank[z]
				if a > b {
					a, b = b, a
				}
				if b > c {
					b, c = c, b
				}
				if a > b {
					a, b = b, a
				}
				ref[[3]int32{a, b, c}] = true
			})
			if len(ref) == 0 {
				t.Fatalf("%s has no triangles", wg.name)
			}
			for _, parts := range []int{1, 2, 3, 5} {
				baseSeq, baseRes := runSeq(t, wg.o, parts, NewMemStore())

				// Serial sequence: exactly-once, set equals brute force.
				seen := make(map[[3]int32]bool, len(baseSeq))
				for _, tri := range baseSeq {
					if seen[tri] {
						t.Fatalf("parts=%d: triangle %v emitted twice", parts, tri)
					}
					seen[tri] = true
					if !ref[tri] {
						t.Fatalf("parts=%d: triangle %v not in brute-force set", parts, tri)
					}
				}
				if len(seen) != len(ref) {
					t.Fatalf("parts=%d: %d triangles, brute force found %d", parts, len(seen), len(ref))
				}
				if baseRes.Triangles != int64(len(ref)) {
					t.Fatalf("parts=%d: Result.Triangles=%d, want %d", parts, baseRes.Triangles, len(ref))
				}

				for _, workers := range []int{2, 8} {
					seq, res := runSeq(t, wg.o, parts, NewMemStore(), WithWorkers(workers))
					if res != baseRes {
						t.Errorf("parts=%d workers=%d: Result %+v != serial %+v", parts, workers, res, baseRes)
					}
					if len(seq) != len(baseSeq) {
						t.Fatalf("parts=%d workers=%d: %d triangles, serial %d", parts, workers, len(seq), len(baseSeq))
					}
					for i := range seq {
						if seq[i] != baseSeq[i] {
							t.Fatalf("parts=%d workers=%d: sequence diverges at %d: %v != %v",
								parts, workers, i, seq[i], baseSeq[i])
						}
					}
				}
			}
		})
	}
}

// TestParallelCancellation: a mid-flight cancel with 8 workers stops
// within one triple commit, keeps Result consistent with the visitor
// calls, emits a strict prefix of the serial sequence, and leaks no
// goroutines.
func TestParallelCancellation(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	fullSeq, full := runSeq(t, o, 5, NewMemStore())
	if full.Triangles == 0 {
		t.Fatal("test graph has no triangles")
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	store := NewMemStore()
	defer store.Close()
	var seq [][3]int32
	res, err := Run(ctx, o, 5, store, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
		cancel()
	}, WithWorkers(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Triangles != int64(len(seq)) {
		t.Fatalf("partial count %d != visitor calls %d", res.Triangles, len(seq))
	}
	if res.Triangles >= full.Triangles || res.Passes >= full.Passes {
		t.Fatalf("cancelled run did all the work: %+v vs full %+v", res, full)
	}
	// The committed prefix is exactly the head of the serial sequence.
	for i := range seq {
		if seq[i] != fullSeq[i] {
			t.Fatalf("cancelled prefix diverges at %d: %v != %v", i, seq[i], fullSeq[i])
		}
	}
	settleGoroutines(t, before)
}

// parkStore fails every Read of block (0,0), but only once a Read of
// block (1,0) — the first read of triple (0,1,1) — is parked on gate:
// triple 0 then fails while another pass is still inside the store.
type parkStore struct {
	BlockStore
	parked, gate chan struct{}
	once         sync.Once
}

func (s *parkStore) Read(i, j int) ([]Arc, error) {
	switch [2]int{i, j} {
	case [2]int{0, 0}:
		<-s.parked
		return nil, errPermanent
	case [2]int{1, 0}:
		s.once.Do(func() {
			close(s.parked)
			<-s.gate
		})
	}
	return s.BlockStore.Read(i, j)
}

// TestRunErrorPathQuiescent: when Run fails, no pass is still using the
// store once it returns, so a caller may Close the store at once on
// the error path.
func TestRunErrorPathQuiescent(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	t.Run("append-fault", func(t *testing.T) {
		before := runtime.NumGoroutine()
		fs := &failStore{inner: NewMemStore(), appendsLeft: 1, readsLeft: -1}
		if _, err := Run(context.Background(), o, 3, fs, nil, WithWorkers(4)); !errors.Is(err, errInjected) {
			t.Fatalf("got %v, want injected fault", err)
		}
		if st := fs.Stats(); st.BlockReads != 0 {
			t.Fatalf("%d block reads after the partition pass failed", st.BlockReads)
		}
		settleGoroutines(t, before)
	})
	t.Run("read-fault", func(t *testing.T) {
		ps := &parkStore{BlockStore: NewMemStore(), parked: make(chan struct{}), gate: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), o, 3, ps, nil, WithWorkers(4))
			done <- err
		}()
		<-ps.parked
		select {
		case err := <-done:
			close(ps.gate)
			t.Fatalf("Run returned (%v) while a pass was still inside a store Read", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(ps.gate)
		if err := <-done; !errors.Is(err, errPermanent) {
			t.Fatalf("got %v, want the permanent fault", err)
		}
	})
}

// settleGoroutines polls until the goroutine count returns near the
// baseline — the dependency-free leak check.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
