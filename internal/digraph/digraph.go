// Package digraph implements the paper's three-step preprocessing
// framework (§2.1): (1) relabel the nodes by a chosen global order,
// (2) orient every edge from the larger new label to the smaller, and
// (3) expose the resulting acyclic digraph G(θ_n) with per-node out/in
// splits to the listing algorithms.
//
// After relabeling, node v's undirected neighbors sorted ascending by new
// label consist of exactly its out-neighbors N⁺(v) (labels < v) followed
// by its in-neighbors N⁻(v) (labels > v). A single sorted CSR with one
// split offset per node therefore encodes the whole orientation, keeps
// both lists "sorted ascending by node ID" as the paper assumes, and
// costs no more memory than the undirected graph.
//
// The build is one serial pass in ascending label order, as in Latapy's
// compact-forward: for l = 0..n-1, append l to the list of every
// neighbor of the node labelled l. Each list therefore fills in
// ascending order with no sort, and l's own split — where its
// in-neighbors begin — is simply its fill position when l's turn comes.
// The (graph, rank) pair fully determines the CSR.
package digraph

import (
	"fmt"

	"trilist/internal/graph"
	"trilist/internal/hashset"
	"trilist/internal/order"
)

// Oriented is an acyclic orientation G(θ_n) of a simple undirected graph.
// Nodes are identified by their new labels 0..n-1.
type Oriented struct {
	offsets []int64 // len n+1
	nbrs    []int32 // relabeled neighbors of each label, sorted ascending
	split   []int64 // absolute index where in-neighbors of label v begin
	rank    []int32 // rank[original] = label (retained for tracing back)
}

// Arena recycles the four Oriented buffers across builds, for callers
// that orient many graphs of similar size in a loop (Monte-Carlo trials,
// the trid registry's cache misses), and holds the build's label → node
// scratch. The zero value is ready to use. Hand buffers back with Put;
// pass the arena to Orient/OrientOwned via WithArena. An Arena is not
// safe for concurrent use — give each worker its own.
type Arena struct {
	offsets []int64
	nbrs    []int32
	split   []int64
	rank    []int32
	inv     []int32 // scratch: never part of an Oriented, kept across builds
}

// Put recycles o's buffers into the arena for the next build. The caller
// must not use o (or any slice obtained from it) afterwards.
func (a *Arena) Put(o *Oriented) {
	if o == nil {
		return
	}
	a.offsets, a.nbrs, a.split, a.rank = o.offsets, o.nbrs, o.split, o.rank
	*o = Oriented{}
}

// grow returns buf resized to n, reallocating only when capacity falls
// short. Contents are unspecified — every build overwrites its buffers
// in full, so no clearing pass is needed.
func grow[T int32 | int64](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// BuildOption configures Orient/OrientOwned.
type BuildOption func(*buildOptions)

type buildOptions struct {
	arena *Arena
}

// WithWorkers is accepted and ignored: the build is serial. It remains
// only because jobbench's replay still passes it.
func WithWorkers(int) BuildOption {
	return func(*buildOptions) {}
}

// WithArena builds into buffers recycled from a (see Arena). The arena's
// buffers are consumed: a keeps only its scratch and must be refilled
// with Put before it saves the next build an allocation.
func WithArena(a *Arena) BuildOption {
	return func(o *buildOptions) { o.arena = a }
}

// Orient relabels g by rank (rank[v] = new label of original node v) and
// builds the oriented digraph. rank must be a bijection on [0, n); it is
// copied, so the caller keeps ownership.
func Orient(g *graph.Graph, rank []int32, opts ...BuildOption) (*Oriented, error) {
	return orient(g, rank, false, opts)
}

// OrientOwned is Orient taking ownership of rank: the orientation aliases
// the slice instead of copying it, saving one O(n) copy per build. The
// caller must not read or write rank afterwards.
func OrientOwned(g *graph.Graph, rank []int32, opts ...BuildOption) (*Oriented, error) {
	return orient(g, rank, true, opts)
}

func orient(g *graph.Graph, rank []int32, owned bool, opts []BuildOption) (*Oriented, error) {
	var bo buildOptions
	for _, opt := range opts {
		opt(&bo)
	}

	n := g.NumNodes()
	if len(rank) != n {
		return nil, fmt.Errorf("digraph: rank length %d != n %d", len(rank), n)
	}
	// inv[l] is the node labelled l, built by the same pass that checks
	// rank is a bijection.
	var inv []int32
	if bo.arena != nil {
		inv = grow(bo.arena.inv, n)
	} else {
		inv = make([]int32, n)
	}
	if bad := order.InvertInto(inv, rank); bad >= 0 {
		if rank[bad] < 0 || int(rank[bad]) >= n {
			return nil, fmt.Errorf("digraph: rank[%d] = %d out of range", bad, rank[bad])
		}
		return nil, fmt.Errorf("digraph: label %d assigned twice", rank[bad])
	}

	o := &Oriented{}
	if bo.arena != nil {
		o.offsets = grow(bo.arena.offsets, n+1)
		o.nbrs = grow(bo.arena.nbrs, int(2*g.NumEdges()))
		o.split = grow(bo.arena.split, n)
		if !owned {
			o.rank = grow(bo.arena.rank, n)
		}
		*bo.arena = Arena{inv: inv}
	} else {
		o.offsets = make([]int64, n+1)
		o.nbrs = make([]int32, 2*g.NumEdges())
		o.split = make([]int64, n)
		if !owned {
			o.rank = make([]int32, n)
		}
	}
	if owned {
		o.rank = rank
	} else {
		copy(o.rank, rank)
	}

	// offsets[l+1] starts as label l's start and serves as its fill
	// cursor, so it ends at l's end. Recycled buffers may be dirty:
	// every slot of all three arrays is written before it is read.
	o.offsets[0] = 0
	var start int64
	for l, v := range inv {
		o.offsets[l+1] = start
		start += int64(g.Degree(v))
	}
	// Scatter in ascending label order: l reaches each neighbor's list
	// after every smaller label has, so the lists fill sorted, and l's
	// own list holds exactly its out-neighbors when its turn comes.
	for l, v := range inv {
		o.split[l] = o.offsets[l+1]
		for _, u := range g.Neighbors(v) {
			k := rank[u] + 1
			o.nbrs[o.offsets[k]] = int32(l)
			o.offsets[k]++
		}
	}
	return o, nil
}

// NumNodes returns n.
func (o *Oriented) NumNodes() int {
	if o.offsets == nil {
		return 0
	}
	return len(o.offsets) - 1
}

// NumEdges returns m.
func (o *Oriented) NumEdges() int64 { return int64(len(o.nbrs)) / 2 }

// Out returns N⁺(v): v's neighbors with labels < v, sorted ascending.
// The slice aliases internal storage and must not be modified.
func (o *Oriented) Out(v int32) []int32 { return o.nbrs[o.offsets[v]:o.split[v]] }

// In returns N⁻(v): v's neighbors with labels > v, sorted ascending.
// The slice aliases internal storage and must not be modified.
func (o *Oriented) In(v int32) []int32 { return o.nbrs[o.split[v]:o.offsets[v+1]] }

// OutDeg returns X_v = |N⁺(v)|.
func (o *Oriented) OutDeg(v int32) int64 { return o.split[v] - o.offsets[v] }

// InDeg returns Y_v = |N⁻(v)|.
func (o *Oriented) InDeg(v int32) int64 { return o.offsets[v+1] - o.split[v] }

// Rank returns the label of original node v.
func (o *Oriented) Rank(v int32) int32 { return o.rank[v] }

// ArcSet builds the hash table of all directed edges y → x that the
// vertex iterators probe for edge-existence checks (§2.2). Packing is
// (y, x) with y > x.
func (o *Oriented) ArcSet() *hashset.EdgeSet {
	s := hashset.New(int(o.NumEdges()))
	n := o.NumNodes()
	for y := 0; y < n; y++ {
		for _, x := range o.Out(int32(y)) {
			s.Add(int32(y), x)
		}
	}
	return s
}

// MaxOutDeg returns max_i X_i(θ), the quantity the degenerate orientation
// minimizes.
func (o *Oriented) MaxOutDeg() int64 {
	var m int64
	for v := 0; v < o.NumNodes(); v++ {
		if x := o.OutDeg(int32(v)); x > m {
			m = x
		}
	}
	return m
}

// SumT1 returns the total T1 cost n·c_n(T1, θ) = Σ_i X_i(X_i-1)/2
// (eq. 7): the number of candidate pairs generated by vertex iterator T1.
func (o *Oriented) SumT1() float64 {
	var s float64
	for v := 0; v < o.NumNodes(); v++ {
		x := float64(o.OutDeg(int32(v)))
		s += x * (x - 1) / 2
	}
	return s
}

// SumT2 returns n·c_n(T2, θ) = Σ_i X_i·Y_i (eq. 8).
func (o *Oriented) SumT2() float64 {
	var s float64
	for v := 0; v < o.NumNodes(); v++ {
		s += float64(o.OutDeg(int32(v))) * float64(o.InDeg(int32(v)))
	}
	return s
}

// SumT3 returns n·c_n(T3, θ) = Σ_i Y_i(Y_i-1)/2 (eq. 9).
func (o *Oriented) SumT3() float64 {
	var s float64
	for v := 0; v < o.NumNodes(); v++ {
		y := float64(o.InDeg(int32(v)))
		s += y * (y - 1) / 2
	}
	return s
}
