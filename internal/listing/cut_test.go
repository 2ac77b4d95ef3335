package listing

import (
	"slices"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/digraph"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/hashset"
	"trilist/internal/order"
)

// The sweeps find every remote-list cut through the worker arena's
// cursors (arena.cut), sum their meters in block locals and, given a
// nil visitor, only count. The reference below cuts each list by binary
// search, merge-scans every SEI window, meters every element as it goes
// and always visits. It shares no cut or intersection code with
// runLEI/runSEI, which is why it, and not the in-package merge
// reference (mergeReference), checks them.

// member reports whether v is in the arena's stamped base list.
func (a *arena) member(v int32) bool { return a.epoch[v] == a.cur }

// suffixAbove returns the suffix of the ascending list with elements > v.
func suffixAbove(list []int32, v int32) []int32 {
	k, found := slices.BinarySearch(list, v)
	if found {
		k++
	}
	return list[k:]
}

// refLEI is runLEI with binary-search cuts and per-probe meters.
func refLEI(o *digraph.Oriented, m Method, ar *arena, visit Visitor, s *Stats, lo, hi int32) {
	fill := func(list []int32) {
		ar.stamp(list)
		s.HashBuild += int64(len(list))
	}
	probe := func(list []int32, tri func(int32)) {
		for _, w := range list {
			s.Lookups++
			if ar.member(w) {
				s.Triangles++
				tri(w)
			}
		}
	}
	for a := lo; a < hi; a++ {
		switch m {
		case L1:
			fill(o.Out(a))
			for _, y := range o.Out(a) {
				probe(o.Out(y), func(x int32) { visit(x, y, a) })
			}
		case L2:
			fill(o.Out(a))
			for _, z := range o.In(a) {
				probe(prefixBelow(o.Out(z), a), func(x int32) { visit(x, a, z) })
			}
		case L3:
			fill(o.In(a))
			for _, y := range o.In(a) {
				probe(o.In(y), func(z int32) { visit(a, y, z) })
			}
		case L4:
			fill(o.Out(a))
			for _, x := range o.Out(a) {
				probe(prefixBelow(o.In(x), a), func(y int32) { visit(x, y, a) })
			}
		case L5:
			fill(o.In(a))
			for _, x := range o.Out(a) {
				probe(suffixAbove(o.In(x), a), func(z int32) { visit(x, a, z) })
			}
		case L6:
			fill(o.In(a))
			for _, z := range o.In(a) {
				probe(suffixAbove(o.Out(z), a), func(y int32) { visit(a, y, z) })
			}
		}
	}
}

// refSEI is runSEI with binary-search cuts and a merge scan of every
// window pair.
func refSEI(o *digraph.Oriented, m Method, visit Visitor, s *Stats, lo, hi int32) {
	scan := func(local, remote []int32, tri func(int32)) {
		s.LocalScan += int64(len(local))
		s.RemoteScan += int64(len(remote))
		s.Comparisons += intersect(local, remote, func(w int32) {
			s.Triangles++
			tri(w)
		})
	}
	for a := lo; a < hi; a++ {
		switch m {
		case E1:
			out := o.Out(a)
			for j, y := range out {
				scan(out[:j], o.Out(y), func(x int32) { visit(x, y, a) })
			}
		case E2:
			for _, z := range o.In(a) {
				scan(o.Out(a), prefixBelow(o.Out(z), a), func(x int32) { visit(x, a, z) })
			}
		case E3:
			in := o.In(a)
			for j, y := range in {
				scan(in[j+1:], o.In(y), func(z int32) { visit(a, y, z) })
			}
		case E4:
			out := o.Out(a)
			for j, x := range out {
				scan(out[j+1:], prefixBelow(o.In(x), a), func(y int32) { visit(x, y, a) })
			}
		case E5:
			for _, x := range o.Out(a) {
				scan(o.In(a), suffixAbove(o.In(x), a), func(z int32) { visit(x, a, z) })
			}
		case E6:
			in := o.In(a)
			for j, z := range in {
				scan(in[:j], suffixAbove(o.Out(z), a), func(y int32) { visit(a, y, z) })
			}
		}
	}
}

// refVertex is runVertex with per-candidate meters.
func refVertex(o *digraph.Oriented, m Method, arcs *hashset.EdgeSet, visit Visitor, s *Stats, lo, hi int32) {
	check := func(from, to int32, tri func()) {
		s.Candidates++
		if arcs.Contains(from, to) {
			s.Triangles++
			tri()
		}
	}
	// pairs calls f(i, j) for every i < j below n, j in the outer loop
	// for T1–T3 and i for T4–T6.
	pairs := func(n int, f func(i, j int)) {
		for a := 0; a < n; a++ {
			if m <= T3 {
				for i := 0; i < a; i++ {
					f(i, a)
				}
			} else {
				for j := a + 1; j < n; j++ {
					f(a, j)
				}
			}
		}
	}
	for a := lo; a < hi; a++ {
		out, in := o.Out(a), o.In(a)
		switch m {
		case T1, T4:
			pairs(len(out), func(i, j int) {
				x, y := out[i], out[j]
				check(y, x, func() { visit(x, y, a) })
			})
		case T3, T6:
			pairs(len(in), func(i, j int) {
				y, z := in[i], in[j]
				check(z, y, func() { visit(a, y, z) })
			})
		case T2:
			for _, x := range out {
				for _, z := range in {
					check(z, x, func() { visit(x, a, z) })
				}
			}
		case T5:
			for _, z := range in {
				for _, x := range out {
					check(z, x, func() { visit(x, a, z) })
				}
			}
		}
	}
}

// refSequence runs m serially through the reference loops and returns
// its triangles in visit order with its Stats.
func refSequence(o *digraph.Oriented, m Method) ([]triKey, Stats) {
	var tris []triKey
	visit := func(x, y, z int32) { tris = append(tris, triKey{x, y, z}) }
	n := int32(o.NumNodes())
	s := Stats{Method: m}
	switch m.Family() {
	case VertexIterator:
		set := o.ArcSet()
		s.HashBuild = int64(set.Len())
		refVertex(o, m, set, visit, &s, 0, n)
	case ScanningEdgeIterator:
		refSEI(o, m, visit, &s, 0, n)
	default:
		ar := &arena{}
		ar.ensure(int(n))
		refLEI(o, m, ar, visit, &s, 0, n)
	}
	return tris, s
}

// cutList returns the list a cutting method cuts for its owner v: N⁺(v)
// for E2, E6, L2 and L6, N⁻(v) for E4, E5, L4 and L5.
func cutList(o *digraph.Oriented, m Method, v int32) []int32 {
	switch m {
	case E2, E6, L2, L6:
		return o.Out(v)
	default:
		return o.In(v)
	}
}

// checkCursorsStepped runs a cutting method serially through one
// worker's sweep function over every anchor and checks that each
// owner's cursor ends just past the last element of its cut list: every
// element was cut once, in order, and stepped past.
func checkCursorsStepped(t *testing.T, name string, o *digraph.Oriented, m Method) {
	t.Helper()
	n := int32(o.NumNodes())
	ar := getArena(int(n), true)
	defer putArena(ar)
	var s Stats
	if m.Family() == ScanningEdgeIterator {
		runSEI(o, m, &intersector{ar: ar}, nil, &s, 0, n)
	} else {
		runLEI(o, m, ar, nil, &s, 0, n)
	}
	for v := int32(0); v < n; v++ {
		if got, want := ar.cursor[v], int32(len(cutList(o, m, v))); got != want {
			t.Fatalf("%s %v: cursor of node %d ends at %d, want %d (its cut list's length)",
				name, m, v, got, want)
		}
	}
}

// checkAgainstReference compares one method on one orientation with the
// reference: the visit sequence and Stats at one worker, Stats and the
// triangle fingerprint at 2 and 8, and the Stats of a count (nil
// visitor) at 1 and 2.
func checkAgainstReference(t *testing.T, name string, o *digraph.Oriented, m Method) {
	t.Helper()
	ref, refStats := refSequence(o, m)
	var refPrint uint64
	for _, k := range ref {
		refPrint += triHash(k[0], k[1], k[2])
	}
	got, s := sequence(o, m, WithWorkers(1))
	if s != refStats {
		t.Fatalf("%s %v: Stats %+v != binary-search reference %+v", name, m, s, refStats)
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("%s %v: visit sequence differs from the binary-search reference", name, m)
	}
	for _, workers := range []int{1, 2} {
		if s := Run(o, m, nil, WithWorkers(workers)); s != refStats {
			t.Fatalf("%s %v workers=%d: count Stats %+v != binary-search reference %+v",
				name, m, workers, s, refStats)
		}
	}
	for _, workers := range []int{2, 8} {
		print, s := fingerprint(o, m, workers)
		if s != refStats {
			t.Fatalf("%s %v workers=%d: Stats %+v != binary-search reference %+v",
				name, m, workers, s, refStats)
		}
		if print != refPrint {
			t.Fatalf("%s %v workers=%d: triangle set differs from the binary-search reference",
				name, m, workers)
		}
	}
}

// cutTestGraphs are graphs of at least nine sweep blocks, so every
// worker of eight skips other workers' blocks: ER, and a linear-Pareto
// graph whose hubs have cut lists spanning most blocks. The Pareto
// scale β = 3 (mean degree ≈ 3, not the paper's 30) keeps hubs of
// degree ≈ 700 while keeping the test's triangle count, and with it its
// run time, small.
func cutTestGraphs(t *testing.T) []struct {
	name string
	g    *graph.Graph
} {
	n := 9*cancelBlock + 100
	er := randomTestGraph(t, 17, n, 4*n)
	p, err := degseq.NewPareto(1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	linear, _, err := gen.ParetoGraph(p, n, degseq.LinearTruncation, rngFor(18))
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.Graph
	}{{"er", er}, {"pareto-linear", linear}}
}

// TestSweepMatchesBinarySearchReference checks the cursor-cut sweeps
// against the binary-search reference under every method × order, and
// checks that a serial sweep leaves each cursor past its whole list.
// Runs on graphs of different sizes follow one another through the
// pooled arenas, so a cursor left over from an earlier run, or one
// shared across workers, changes a window and fails the comparison.
func TestSweepMatchesBinarySearchReference(t *testing.T) {
	graphs := cutTestGraphs(t)
	for _, wl := range graphs {
		for _, kind := range order.Kinds {
			o := orientBy(t, wl.g, kind, 3)
			name := wl.name + " " + kind.String()
			for _, m := range Methods {
				checkAgainstReference(t, name, o, m)
				if m.cutsRemote() {
					checkCursorsStepped(t, name, o, m)
				}
			}
		}
	}
	// Back to back through the pool: a large graph, then a smaller one
	// whose nodes index the cursors the large run left behind, then the
	// large one again.
	small := randomTestGraph(t, 19, 3*cancelBlock, 24*cancelBlock)
	big := orientBy(t, graphs[1].g, order.KindDescending, 3)
	for _, m := range Methods {
		if !m.cutsRemote() {
			continue
		}
		for _, step := range []struct {
			name string
			o    *digraph.Oriented
		}{
			{"big", big},
			{"small", orientBy(t, small, order.KindDescending, 3)},
			{"big again", big},
		} {
			checkAgainstReference(t, "pooled "+step.name, step.o, m)
		}
	}
}

// BenchmarkSweep times count sweeps (nil visitor) of L2, E2 and L5 on a
// linear-Pareto graph under θ_D, n = 10k: the methods whose remote
// lists are cut by the arena's cursors.
func BenchmarkSweep(b *testing.B) {
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.5), 10000, degseq.LinearTruncation, rngFor(1))
	if err != nil {
		b.Fatal(err)
	}
	o := orientBy(b, g, order.KindDescending, 1)
	for _, m := range []Method{L2, E2, L5} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(o, m, nil)
			}
		})
	}
}
