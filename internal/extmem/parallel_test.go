package extmem

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
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
			listing.BruteForce(wg.g, func(x, y, z int32) {
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

// TestParallelFileStoreDeterminism: concurrent workers over a real
// file-backed store still match the serial in-memory run exactly —
// FileStore.Read is safe and deterministic under concurrency.
func TestParallelFileStoreDeterminism(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	baseSeq, baseRes := runSeq(t, o, 5, NewMemStore())

	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	seq, res := runSeq(t, o, 5, fs, WithWorkers(8))
	if res != baseRes {
		t.Errorf("file-backed parallel Result %+v != serial %+v", res, baseRes)
	}
	if len(seq) != len(baseSeq) {
		t.Fatalf("file-backed parallel found %d triangles, serial %d", len(seq), len(baseSeq))
	}
	for i := range seq {
		if seq[i] != baseSeq[i] {
			t.Fatalf("sequence diverges at %d: %v != %v", i, seq[i], baseSeq[i])
		}
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

// TestFileStoreStaleSweep: a spill dir polluted by an aborted earlier
// run (leftover block files, never Closed) is swept clean on open, so
// a fresh run is not corrupted by stale arcs.
func TestFileStoreStaleSweep(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Append(0, 0, []Arc{{Y: 3, X: 1}, {Y: 5, X: 2}}); err != nil {
		t.Fatal(err)
	}
	// Simulate the abort: the process died, Close never ran.
	if got := countBlockFiles(t, dir); got == 0 {
		t.Fatal("setup: no stale block files written")
	}

	o := orientedTestGraph(t, 31, 150, 1800)
	want := listing.Run(o, listing.E1, nil).Triangles
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), o, 3, s2, nil, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Fatalf("run over reused dir found %d triangles, want %d — stale blocks leaked in", res.Triangles, want)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countBlockFiles(t, dir); got != 0 {
		t.Fatalf("%d block files left after Close", got)
	}
}

// TestRunErrorPathLeavesNoSpillFiles: when Run fails mid-pass, closing
// the store still removes every spill file — the cleanup contract for
// error paths (satellite fix: no leftover block files in the dir).
func TestRunErrorPathLeavesNoSpillFiles(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	for name, fault := range map[string]struct{ appends, reads int }{
		"append-fault": {appends: 1, reads: -1},
		"read-fault":   {appends: -1, reads: 2},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inner, err := NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs := &failStore{inner: inner, appendsLeft: fault.appends, readsLeft: fault.reads}
			if _, err := Run(context.Background(), o, 3, fs, nil, WithWorkers(4)); !errors.Is(err, errInjected) {
				t.Fatalf("got %v, want injected fault", err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			if got := countBlockFiles(t, dir); got != 0 {
				t.Fatalf("%d spill files left behind after failed run + Close", got)
			}
		})
	}
}

func countBlockFiles(t *testing.T, dir string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "block_*.arcs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
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
