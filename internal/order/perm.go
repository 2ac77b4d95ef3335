// Package order implements the paper's relabeling permutations θ_n and
// orientation orders (§2.1, §5.3, §6.1, §7.5).
//
// A permutation θ_n maps the position of a node in the *ascending-degree*
// order A_n to its new label; after relabeling, each edge is oriented from
// the larger label to the smaller (y → x iff label(y) > label(x)), which
// is automatically acyclic. The paper studies six concrete orders:
//
//	θ_A      ascending degree            ξ(u) = u
//	θ_D      descending degree           ξ(u) = 1-u
//	θ_RR     round-robin (eq. 32)        ξ(u) ∈ {(1-u)/2, (1+u)/2} w.p. ½
//	θ_CRR    complementary round-robin   ξ(u) ∈ {u/2, 1-u/2}       w.p. ½
//	θ_U      uniform (hash-based)        ξ(u) ~ Uniform[0,1]
//	θ_degen  smallest-last / degeneracy  (graph-dependent, Matula–Beck [29])
//
// plus the reverse θ'(i) = n+1-θ(i) and complement θ”(i) = θ(n-i+1)
// operators of Propositions 1 and 7. Algorithm 1 (OPT), which builds the
// cost-optimal permutation for a method's h function (Theorem 3), is a
// test oracle in opt_test.go.
//
// All indices here are 0-based; the paper's 1-based formulas are shifted
// accordingly.
package order

import (
	"fmt"
	"strings"

	"trilist/internal/graph"
	"trilist/internal/stats"
)

// RankOption configures Rank/RankFromPerm.
type RankOption func(*rankOptions)

type rankOptions struct{}

// WithWorkers is accepted and ignored: the rank is built serially. It
// remains only because jobbench's replay still passes it.
func WithWorkers(int) RankOption {
	return func(*rankOptions) {}
}

// Perm is a permutation θ over positions 0..n-1: Perm[i] is the new label
// of the node occupying position i of the ascending-degree order.
type Perm []int32

// Validate reports an error unless the permutation is a bijection on
// [0, n).
func (p Perm) Validate() error {
	switch bad := InvertInto(make([]int32, len(p)), p); {
	case bad < 0:
		return nil
	case p[bad] < 0 || int(p[bad]) >= len(p):
		return fmt.Errorf("order: perm[%d] = %d out of range [0,%d)", bad, p[bad], len(p))
	default:
		return fmt.Errorf("order: label %d assigned twice", p[bad])
	}
}

// InvertInto checks that vals is a bijection on [0, len(vals)) and
// builds its inverse in the same pass: it sets inv[vals[i]] = i for
// every i and returns -1, or returns the index of the first entry of
// vals that is out of range or repeats an earlier one (inv is then
// partly written). inv must have len(vals) entries; its old contents
// are ignored.
func InvertInto(inv, vals []int32) int {
	for i := range inv {
		inv[i] = -1
	}
	for i, v := range vals {
		if v < 0 || int(v) >= len(inv) || inv[v] >= 0 {
			return i
		}
		inv[v] = int32(i)
	}
	return -1
}

// Reverse returns the paper's θ'(i) = n+1-θ(i) (1-based), i.e.
// n-1-θ(i) in 0-based form. Proposition 1: reversing swaps the roles of
// out- and in-degree in every cost formula.
func (p Perm) Reverse() Perm {
	n := int32(len(p))
	q := make(Perm, n)
	for i, v := range p {
		q[i] = n - 1 - v
	}
	return q
}

// Complement returns the paper's θ”(i) = θ(n-i+1) (1-based): the same
// mapping applied to the descending- rather than ascending-degree order.
// Proposition 7: if θ converges to map ξ(u), θ” converges to ξ(1-u).
// Corollary 3: ξ is optimal for a method iff ξ” is its worst case.
func (p Perm) Complement() Perm {
	n := len(p)
	q := make(Perm, n)
	for i := range p {
		q[i] = p[n-1-i]
	}
	return q
}

// Ascending returns θ_A(i) = i: node labels increase with degree.
func Ascending(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Descending returns θ_D(i) = n-1-i: the largest degree gets label 0.
func Descending(n int) Perm { return Ascending(n).Reverse() }

// RoundRobin returns the paper's RR permutation (eq. 32), which scatters
// large degrees toward both ends of the label range [0, n): the optimal
// order for T2 (Corollary 2). In the paper's 1-based form,
//
//	θ(i) = ⌈(n+i)/2⌉      for odd i,
//	θ(i) = ⌊(n-i)/2⌋ + 1  for even i.
func RoundRobin(n int) Perm {
	p := make(Perm, n)
	for i0 := 0; i0 < n; i0++ {
		i := i0 + 1 // paper's 1-based position
		var label int
		if i%2 == 1 {
			label = (n + i + 1) / 2 // ⌈(n+i)/2⌉
		} else {
			label = (n-i)/2 + 1
		}
		p[i0] = int32(label - 1)
	}
	return p
}

// ComplementaryRoundRobin returns θ_CRR = θ”_RR, which gathers large
// degrees toward the middle of the label range: the optimal order for
// E4/E6 (Corollary 2).
func ComplementaryRoundRobin(n int) Perm { return RoundRobin(n).Complement() }

// Uniform returns a uniformly random bijection — the "hash-based" order
// of prior work [14], whose limit map ξ_U(u) is Uniform[0,1] independent
// of u (§5.3).
func Uniform(n int, rng *stats.RNG) Perm {
	p := make(Perm, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// Kind selects one of the paper's six named orders.
type Kind int

const (
	// KindAscending is θ_A: labels ascend with degree.
	KindAscending Kind = iota
	// KindDescending is θ_D: labels descend with degree — optimal for
	// T1 and E1 (Corollary 1).
	KindDescending
	// KindRoundRobin is θ_RR (eq. 32) — optimal for T2 (Corollary 2).
	KindRoundRobin
	// KindCRR is θ_CRR — optimal for E4 (Corollary 2).
	KindCRR
	// KindUniform is θ_U, the random/hash order.
	KindUniform
	// KindDegenerate is the smallest-last order of Matula–Beck [29],
	// which minimizes the maximum out-degree (§7.5). Unlike the others it
	// depends on the edge structure, not just the degree sequence.
	KindDegenerate
)

// Kinds lists all named orders in the column order of the paper's
// Table 12: θ_D, θ_A, θ_RR, θ_CRR, θ_U, θ_degen.
var Kinds = []Kind{KindDescending, KindAscending, KindRoundRobin, KindCRR, KindUniform, KindDegenerate}

func (k Kind) String() string {
	switch k {
	case KindAscending:
		return "ascending"
	case KindDescending:
		return "descending"
	case KindRoundRobin:
		return "round-robin"
	case KindCRR:
		return "complementary-round-robin"
	case KindUniform:
		return "uniform"
	case KindDegenerate:
		return "degenerate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind resolves an order name, case-insensitively: its String
// form or a short alias (asc, desc, rr, crr, u, degen, ...). "auto" is
// not an order: callers that accept it resolve it before calling.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "ascending", "asc", "a":
		return KindAscending, nil
	case "descending", "desc", "d":
		return KindDescending, nil
	case "round-robin", "roundrobin", "rr":
		return KindRoundRobin, nil
	case "complementary-round-robin", "crr":
		return KindCRR, nil
	case "uniform", "random", "u":
		return KindUniform, nil
	case "degenerate", "degen", "smallest-last":
		return KindDegenerate, nil
	default:
		return 0, fmt.Errorf("unknown order %q", s)
	}
}

// ShortName returns the paper's subscript notation.
func (k Kind) ShortName() string {
	switch k {
	case KindAscending:
		return "θ_A"
	case KindDescending:
		return "θ_D"
	case KindRoundRobin:
		return "θ_RR"
	case KindCRR:
		return "θ_CRR"
	case KindUniform:
		return "θ_U"
	case KindDegenerate:
		return "θ_degen"
	default:
		return k.String()
	}
}

// ascendingDegreePositions returns nodes sorted ascending by
// (degree, node ID): position p holds the node occupying slot p of the
// paper's order-statistics vector A_n. Degree ties break by ID so results
// are deterministic.
//
// (degree, id) is a total order with degrees bounded by maxDeg, so a
// counting sort placing ascending node ids into per-degree buckets
// produces it in O(n + maxDeg) with no comparator calls.
func ascendingDegreePositions(g *graph.Graph) []int32 {
	n := g.NumNodes()
	nodes := make([]int32, n)
	if n == 0 {
		return nodes
	}
	count := make([]int64, g.MaxDegree()+2)
	for v := 0; v < n; v++ {
		count[g.Degree(int32(v))+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		nodes[count[d]] = int32(v)
		count[d]++
	}
	return nodes
}

// Rank computes the relabeling rank[v] = new label of node v for the
// requested order. For degree-based orders the permutation is applied to
// the ascending-degree position of each node; KindUniform draws the
// bijection from rng (which must be non-nil for that kind); and
// KindDegenerate runs Matula–Beck smallest-last on the graph structure.
// opts are accepted and ignored (see WithWorkers).
func Rank(g *graph.Graph, k Kind, rng *stats.RNG, opts ...RankOption) ([]int32, error) {
	n := g.NumNodes()
	switch k {
	case KindUniform:
		if rng == nil {
			return nil, fmt.Errorf("order: uniform order requires an RNG")
		}
		return Uniform(n, rng), nil
	case KindDegenerate:
		return DegenerateRank(g), nil
	}
	var p Perm
	switch k {
	case KindAscending:
		p = Ascending(n)
	case KindDescending:
		p = Descending(n)
	case KindRoundRobin:
		p = RoundRobin(n)
	case KindCRR:
		p = ComplementaryRoundRobin(n)
	default:
		return nil, fmt.Errorf("order: unknown kind %v", k)
	}
	return RankFromPerm(g, p)
}

// RankFromPerm applies an arbitrary permutation θ to the ascending-degree
// positions of g's nodes: rank[v] = θ(position of v in A_n). opts are
// accepted and ignored (see WithWorkers).
func RankFromPerm(g *graph.Graph, p Perm, opts ...RankOption) ([]int32, error) {
	if len(p) != g.NumNodes() {
		return nil, fmt.Errorf("order: perm length %d != n %d", len(p), g.NumNodes())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rank := make([]int32, len(p))
	for i, v := range ascendingDegreePositions(g) {
		rank[v] = p[i]
	}
	return rank, nil
}

// Degeneracy returns the graph's degeneracy k — the smallest value such
// that every subgraph has a node of degree at most k. It is the maximum
// out-degree under the smallest-last rank (each node's out-neighbors are
// exactly the neighbors still present when it was peeled); O(n + m).
func Degeneracy(g *graph.Graph) int {
	rank := DegenerateRank(g)
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		out := 0
		for _, w := range g.Neighbors(int32(v)) {
			if rank[w] < rank[int32(v)] {
				out++
			}
		}
		if out > max {
			max = out
		}
	}
	return max
}

// DegenerateRank computes the smallest-last (degeneracy) order of
// Matula–Beck [29] with a bucket queue in O(n + m): repeatedly delete a
// minimum-degree node from the remaining graph; the i-th deleted node
// receives label n-1-i, so every node's not-yet-deleted neighbors — its
// out-neighbors under the orientation — number at most the graph's
// degeneracy. This is the orientation that minimizes max_i X_i(θ).
func DegenerateRank(g *graph.Graph) []int32 {
	// Canonical Batagelj–Zaveršnik bucket queue: vert holds the nodes
	// partitioned into contiguous buckets of equal current degree, in
	// ascending degree order; bin[d] is the start index of bucket d.
	// Peeling node vert[i] decrements each higher-degree neighbor w by
	// swapping w to the front of its bucket and advancing that bucket's
	// start — the vacated slot becomes the tail of bucket deg(w)-1.
	// Processed nodes are never touched again: a neighbor with
	// deg[w] <= deg[v] either was already peeled or will be peeled at its
	// current degree, and in both cases needs no move.
	n := g.NumNodes()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d < len(bin); d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, n)
	pos := make([]int32, n)
	fill := make([]int32, maxDeg+1)
	copy(fill, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		d := deg[v]
		vert[fill[d]] = int32(v)
		pos[v] = fill[d]
		fill[d]++
	}
	rank := make([]int32, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		rank[v] = int32(n - 1 - i)
		for _, w := range g.Neighbors(v) {
			if deg[w] <= deg[v] {
				continue
			}
			dw := deg[w]
			pw := pos[w]
			sw := bin[dw]
			if u := vert[sw]; u != w {
				vert[sw], vert[pw] = w, u
				pos[w], pos[u] = sw, pw
			}
			bin[dw]++
			deg[w]--
		}
	}
	return rank
}
