// Package gen implements the random-graph generators used by the paper's
// evaluation (§3.1, §7.2) and the classical baselines they are compared
// against:
//
//   - ResidualDegree: the paper's generator of choice — a variation of the
//     Blitzstein–Diaconis sequential-importance-sampling method [11] that
//     "picks neighbors in proportion to their residual degree and excludes
//     the already-attached neighbors", implemented in O(m log n) with a
//     Fenwick tree over residual degree mass. With the exception of
//     possibly one last edge (odd degree sum), it realizes the prescribed
//     degree sequence D_n exactly.
//   - ConfigurationModel: the traditional stub-matching construction
//     [8, 30] with self-loops and duplicate edges erased, which the paper
//     notes has "a noticeable impact on the realized degree" for heavy
//     tails — the motivation for ResidualDegree.
//   - ChungLu: an independent-edge graph with P(i~j) = min(1, d_i d_j/2m),
//     i.e. exactly the edge-probability model of eq. (10), generated in
//     O(n + m) expected time by skip sampling.
//   - ErdosRenyi: classical G(n, m), the no-heavy-tail control.
//
// All generators are deterministic functions of their *stats.RNG argument.
package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"trilist/internal/degseq"
	"trilist/internal/fenwick"
	"trilist/internal/graph"
	"trilist/internal/stats"
)

// Report describes how faithfully a generator realized its target.
type Report struct {
	// RequestedStubs is Σ d_i of the prescribed sequence.
	RequestedStubs int64
	// RealizedEdges is the number of edges in the returned simple graph.
	RealizedEdges int64
	// SelfLoopsErased and DuplicatesErased count removals by the erased
	// configuration model (always zero for ResidualDegree).
	SelfLoopsErased  int64
	DuplicatesErased int64
	// Deficit is Σ_i (d_i - realized degree of i): unrealized stubs.
	// For ResidualDegree this is 0 or small (odd sum / exhausted mass).
	Deficit int64
}

// ResidualDegree realizes the degree sequence d as a simple graph using
// the paper's §7.2 method: nodes are processed in descending residual
// order; each unfinished node draws partners in proportion to their
// remaining (residual) degree, excluding itself and nodes it is already
// attached to. A Fenwick tree stores residual mass, so each draw is
// O(log n) and the whole construction O(m log n).
//
// If the degree sum is odd, one stub is left unmatched. In pathological
// sequences (e.g. a node whose degree exceeds the number of available
// distinct partners at its turn) additional stubs may go unmatched; the
// Report's Deficit accounts for every one. The sequence is not required
// to pass Erdős–Gallai, but graphic sequences are realized exactly
// whenever possible.
func ResidualDegree(d degseq.Sequence, rng *stats.RNG) (*graph.Graph, Report, error) {
	n := len(d)
	rep := Report{RequestedStubs: d.Sum()}
	if err := d.Validate(); n > 0 && err != nil {
		return nil, rep, fmt.Errorf("gen: ResidualDegree: %w", err)
	}
	residual := make([]int64, n)
	copy(residual, d)

	// Residual degree mass, the sampling weight of each prospective
	// neighbor.
	tree := fenwick.New(n)
	for i, r := range residual {
		tree.Add(i, float64(r))
	}

	// Incremental adjacency, needed to exclude already-attached nodes.
	adj := make([][]int32, n)
	edges := make([]graph.Edge, 0, rep.RequestedStubs/2)

	// Process nodes in descending prescribed degree: attaching the
	// heaviest nodes first maximizes the chance of exact realization
	// (the same ordering heuristic as Havel–Hakimi).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// (degree desc, id asc) is a total order over distinct ids: the
	// unstable sort is deterministic, keeping generated graphs stable.
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(d[b], d[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, i := range order {
		if residual[i] == 0 {
			continue
		}
		// Exclude i and its already-attached neighbors from the candidate
		// mass by zeroing their tree weight; residual[] stays the ground
		// truth and masked nodes are restored from it afterwards.
		exclude := make([]int32, 0, len(adj[i])+1)
		mask := func(v int32) {
			if w := tree.Get(int(v)); w != 0 {
				tree.Add(int(v), -w)
			}
			exclude = append(exclude, v)
		}
		mask(i)
		for _, v := range adj[i] {
			mask(v)
		}

		for residual[i] > 0 {
			total := tree.Total()
			if total <= 0.5 {
				// No eligible partner remains; leave stubs unmatched.
				residual[i] = 0
				break
			}
			j := int32(tree.FindByPrefix(rng.OpenFloat64() * total))
			// Attach i—j; keep j masked for the rest of i's turn.
			edges = append(edges, graph.Edge{U: i, V: j})
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
			residual[i]--
			residual[j]--
			mask(j)
		}

		// Restore every masked node's weight to its current residual.
		// Set (not Add) is idempotent, so nodes that were masked twice
		// (a prior neighbor that got re-masked) are handled correctly;
		// i itself restores to 0 because its residual is spent.
		for _, v := range exclude {
			tree.Set(int(v), float64(residual[v]))
		}
	}

	rep.Deficit = rep.RequestedStubs - 2*int64(len(edges))

	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		return nil, rep, fmt.Errorf("gen: ResidualDegree produced an invalid graph: %w", err)
	}
	rep.RealizedEdges = g.NumEdges()
	return g, rep, nil
}

// ConfigurationModel builds a graph by uniform stub matching [8, 30] and
// then erases self-loops and duplicate edges, so realized degrees may be
// smaller than prescribed (Report.Deficit accounts for the loss). If the
// degree sum is odd, one stub is dropped.
func ConfigurationModel(d degseq.Sequence, rng *stats.RNG) (*graph.Graph, Report, error) {
	n := len(d)
	rep := Report{RequestedStubs: d.Sum()}
	if err := d.Validate(); n > 0 && err != nil {
		return nil, rep, fmt.Errorf("gen: ConfigurationModel: %w", err)
	}
	stubs := make([]int32, 0, rep.RequestedStubs)
	for i, di := range d {
		for k := int64(0); k < di; k++ {
			stubs = append(stubs, int32(i))
		}
	}
	rng.ShuffleInt32(stubs)
	// Pair consecutive stubs; collect simple edges, count erasures.
	seen := make(map[uint64]bool, len(stubs)/2)
	edges := make([]graph.Edge, 0, len(stubs)/2)
	for k := 0; k+1 < len(stubs); k += 2 {
		u, v := stubs[k], stubs[k+1]
		if u == v {
			rep.SelfLoopsErased++
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(uint32(a))<<32 | uint64(uint32(b))
		if seen[key] {
			rep.DuplicatesErased++
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		return nil, rep, fmt.Errorf("gen: ConfigurationModel produced an invalid graph: %w", err)
	}
	rep.RealizedEdges = g.NumEdges()
	rep.Deficit = rep.RequestedStubs - 2*rep.RealizedEdges
	return g, rep, nil
}

// ChungLu generates a graph in which each edge {i, j} appears
// independently with probability min(1, d_i d_j / Σd) — the model behind
// eq. (10). It uses the Miller–Hagberg skip-sampling construction over
// weight-sorted nodes, which runs in O(n + m) expected time and produces
// exactly the target edge probabilities (including the unit cap).
func ChungLu(d degseq.Sequence, rng *stats.RNG) (*graph.Graph, Report, error) {
	n := len(d)
	rep := Report{RequestedStubs: d.Sum()}
	for i, x := range d {
		if x < 0 {
			return nil, rep, fmt.Errorf("gen: ChungLu: negative weight at %d", i)
		}
	}
	s := float64(rep.RequestedStubs)
	if n == 0 || s == 0 {
		g, err := graph.FromEdges(n, nil, false)
		return g, rep, err
	}
	// Sort node indices by weight descending.
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(d[b], d[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	w := make([]float64, n)
	for r, i := range idx {
		w[r] = float64(d[i])
	}
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		if w[i] == 0 {
			break // all subsequent weights are zero too
		}
		j := i + 1
		p := math.Min(1, w[i]*w[j]/s)
		for j < n && p > 0 {
			if p < 1 {
				j += int(rng.Geometric(p))
			}
			if j < n {
				q := math.Min(1, w[i]*w[j]/s)
				if rng.Float64() < q/p {
					edges = append(edges, graph.Edge{U: idx[i], V: idx[j]})
				}
				p = q
				j++
			}
		}
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		return nil, rep, fmt.Errorf("gen: ChungLu produced an invalid graph: %w", err)
	}
	rep.RealizedEdges = g.NumEdges()
	rep.Deficit = rep.RequestedStubs - 2*rep.RealizedEdges
	return g, rep, nil
}

// ErdosRenyi returns a uniform simple graph G(n, m) with exactly m edges,
// by rejection sampling of distinct non-loop pairs. It requires
// m <= n(n-1)/2 and stays efficient while m is at most about half that
// maximum (our use cases are sparse).
func ErdosRenyi(n int, m int64, rng *stats.RNG) (*graph.Graph, error) {
	maxM := int64(n) * int64(n-1) / 2
	if m < 0 || m > maxM {
		return nil, fmt.Errorf("gen: ErdosRenyi: m = %d outside [0, %d]", m, maxM)
	}
	seen := make(map[uint64]bool, m)
	edges := make([]graph.Edge, 0, m)
	for int64(len(edges)) < m {
		u := int32(rng.IntN(n))
		v := int32(rng.IntN(n))
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		key := uint64(uint32(a))<<32 | uint64(uint32(b))
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{U: a, V: b})
	}
	return graph.FromEdges(n, edges, false)
}

// ParetoGraph is the paper's end-to-end workload constructor: draw
// D_n iid from a Pareto(α, β) truncated at t_n = rule.Tn(n), evenize, and
// realize with ResidualDegree. This is the graph family behind every
// simulation table (§7.3–§7.4).
func ParetoGraph(p degseq.Pareto, n int, rule degseq.Truncation, rng *stats.RNG) (*graph.Graph, Report, error) {
	tr, err := degseq.TruncateFor(p, rule, int64(n))
	if err != nil {
		return nil, Report{}, fmt.Errorf("gen: ParetoGraph: %w", err)
	}
	d := degseq.Sample(tr, n, rng)
	d.MakeEven()
	return ResidualDegree(d, rng)
}
