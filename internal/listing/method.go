// Package listing implements every triangle-listing algorithm the paper
// classifies (§2.2–§2.4) — the six vertex iterators T1–T6, the six
// scanning edge iterators (SEI) E1–E6, and the six lookup edge iterators
// (LEI) L1–L6 — over an acyclically oriented graph, plus the historical
// baselines they generalize (brute force, classic un-oriented node/edge
// iterators, Chiba–Nishizeki, Forward, and Compact Forward).
//
// Every triangle x < y < z (in relabeled IDs) is reported exactly once by
// every method; the methods differ only in traversal order and therefore
// in cost. Each run returns Stats with two kinds of meters:
//
//   - the model cost the paper analyzes — candidate-tuple counts for
//     vertex iterators (eqs. 7–9), local/remote sublist volumes for SEI
//     (Table 1), and hash-lookup counts for LEI (Table 2);
//   - actual operation counts — live two-pointer comparisons for SEI and
//     hash probes for VI/LEI — which tests use to confirm that real work
//     never exceeds the model bound.
//
// Scanning edge iterators intersect each window pair along one adaptive
// path: they stamp the anchor's list once and probe it, or gallop when
// the window is much shorter than the remote list (see intersector).
// The path yields the merge scan's triangles, visit order and every
// Stats meter, Comparisons included.
package listing

import (
	"context"
	"fmt"

	"trilist/internal/digraph"
)

// Method identifies one of the 18 oriented triangle-listing algorithms.
type Method int

const (
	// T1 starts from the largest node z of each triangle, generating
	// candidate pairs x < y from N⁺(z) and probing the hash table for
	// y → x. Cost Σ X(X-1)/2 (eq. 7). Optimal order: θ_D.
	T1 Method = iota
	// T2 starts from the middle node y, pairing each x ∈ N⁺(y) with each
	// z ∈ N⁻(y) and probing z → x. Cost Σ X·Y (eq. 8). Optimal order: RR.
	T2
	// T3 starts from the smallest node x, generating pairs y < z from
	// N⁻(x) and probing z → y. Cost Σ Y(Y-1)/2 (eq. 9): T1 with the
	// permutation reversed (Prop. 1).
	T3
	// T4, T5, T6 visit the last two neighbors in the opposite order of
	// T1, T2, T3 respectively; their costs are identical (§2.2).
	T4
	T5
	T6
	// E1 visits z, and for each y ∈ N⁺(z) scan-intersects the prefix of
	// N⁺(z) below y (local) with N⁺(y) (remote). Cost T1 + T2 (Prop. 2).
	// Optimal order: θ_D.
	E1
	// E2 visits y, and for each z ∈ N⁻(y) intersects N⁺(y) (local) with
	// the prefix of N⁺(z) below y (remote). Cost T2 + T1. This is the
	// "Forward" family [33], [28].
	E2
	// E3 visits x, and for each y ∈ N⁻(x) intersects the suffix of N⁻(x)
	// above y (local) with N⁻(y) (remote). Cost T3 + T2: E1 reversed.
	E3
	// E4 visits z, and for each x ∈ N⁺(z) intersects the suffix of N⁺(z)
	// above x (local) with the prefix of N⁻(x) below z (remote).
	// Cost T1 + T3. Optimal order: CRR.
	E4
	// E5 visits y, and for each x ∈ N⁺(y) intersects N⁻(y) (local) with
	// the suffix of N⁻(x) above y (remote). Cost T2 + T3. The remote
	// start is buried mid-list, requiring an extra binary search (§2.3).
	E5
	// E6 visits x, and for each z ∈ N⁻(x) intersects the prefix of N⁻(x)
	// below z (local) with the suffix of N⁺(z) above x (remote).
	// Cost T3 + T1: E4's mirror, likewise mid-list.
	E6
	// L1–L6 are the lookup (hash-based) edge iterators: the same six
	// search orders, but the first visited node's list is hashed and the
	// remote list probes it. Lookup cost is the corresponding SEI remote
	// cost (Table 2): T2, T1, T2, T3, T3, T1 respectively.
	L1
	L2
	L3
	L4
	L5
	L6

	numMethods
)

// Methods lists all 18 methods in declaration order.
var Methods = func() []Method {
	ms := make([]Method, numMethods)
	for i := range ms {
		ms[i] = Method(i)
	}
	return ms
}()

// Core is the set of four non-isomorphic techniques the paper's analysis
// reduces to (Figure 5): T1, T2, E1, E4.
var Core = []Method{T1, T2, E1, E4}

func (m Method) String() string {
	names := [...]string{
		"T1", "T2", "T3", "T4", "T5", "T6",
		"E1", "E2", "E3", "E4", "E5", "E6",
		"L1", "L2", "L3", "L4", "L5", "L6",
	}
	if m < 0 || int(m) >= len(names) {
		return fmt.Sprintf("Method(%d)", int(m))
	}
	return names[m]
}

// Family classifies a method into the paper's three algorithm families.
type Family int

const (
	// VertexIterator methods (T1–T6) probe a global edge hash table.
	VertexIterator Family = iota
	// ScanningEdgeIterator methods (E1–E6) merge-intersect sorted lists.
	ScanningEdgeIterator
	// LookupEdgeIterator methods (L1–L6) hash one list and probe it.
	LookupEdgeIterator
)

func (f Family) String() string {
	switch f {
	case VertexIterator:
		return "vertex-iterator"
	case ScanningEdgeIterator:
		return "scanning-edge-iterator"
	case LookupEdgeIterator:
		return "lookup-edge-iterator"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Family returns the method's family.
func (m Method) Family() Family {
	switch {
	case m >= T1 && m <= T6:
		return VertexIterator
	case m >= E1 && m <= E6:
		return ScanningEdgeIterator
	default:
		return LookupEdgeIterator
	}
}

// costTerm identifies one of the three vertex-iterator cost formulas.
type costTerm int

const (
	termT1 costTerm = iota // Σ X(X-1)/2
	termT2                 // Σ X·Y
	termT3                 // Σ Y(Y-1)/2
)

// viCost maps T1..T6 to their formula (T4-T6 repeat T1-T3, §2.2).
var viCost = [6]costTerm{termT1, termT2, termT3, termT1, termT2, termT3}

// seiCost is the paper's Table 1: local and remote intersection volumes
// of E1..E6 expressed as vertex-iterator formulas.
var seiCost = [6][2]costTerm{
	{termT1, termT2}, // E1
	{termT2, termT1}, // E2
	{termT3, termT2}, // E3
	{termT1, termT3}, // E4
	{termT2, termT3}, // E5
	{termT3, termT1}, // E6
}

// leiCost is the paper's Table 2: lookup volume of L1..L6 (the second row
// of Table 1).
var leiCost = [6]costTerm{termT2, termT1, termT2, termT3, termT3, termT1}

func evalTerm(o *digraph.Oriented, t costTerm) float64 {
	switch t {
	case termT1:
		return o.SumT1()
	case termT2:
		return o.SumT2()
	default:
		return o.SumT3()
	}
}

// ModelCost returns the paper-defined total operation count n·c_n(M, θ)
// of running method m on the orientation o, evaluated in O(n) directly
// from the degree sums without listing any triangle: eqs. (7)–(9) for
// vertex iterators, Table 1 (local + remote) for SEI, and Table 2 for
// LEI. Tests verify that instrumented runs measure exactly this value.
func ModelCost(o *digraph.Oriented, m Method) float64 {
	switch m.Family() {
	case VertexIterator:
		return evalTerm(o, viCost[m-T1])
	case ScanningEdgeIterator:
		c := seiCost[m-E1]
		return evalTerm(o, c[0]) + evalTerm(o, c[1])
	default:
		return evalTerm(o, leiCost[m-L1])
	}
}

// ModelCostSplit returns SEI local and remote volumes separately
// (Table 1). For other families, local carries the whole cost.
func ModelCostSplit(o *digraph.Oriented, m Method) (local, remote float64) {
	if m.Family() != ScanningEdgeIterator {
		return ModelCost(o, m), 0
	}
	c := seiCost[m-E1]
	return evalTerm(o, c[0]), evalTerm(o, c[1])
}

// Visitor receives each triangle once with relabeled IDs x < y < z.
type Visitor func(x, y, z int32)

// Stats reports the meters of one listing run.
type Stats struct {
	// Method that produced these stats.
	Method Method
	// Triangles found (each exactly once).
	Triangles int64
	// Candidates is the vertex-iterator model cost: tuples generated and
	// checked against the edge hash table (eqs. 7–9).
	Candidates int64
	// LocalScan and RemoteScan are the SEI model volumes (Table 1).
	LocalScan, RemoteScan int64
	// Lookups is the LEI model cost: hash probes of the local set
	// (Table 2).
	Lookups int64
	// Comparisons counts the two-pointer advances a merge scan of every
	// SEI window pair performs; always <= LocalScan + RemoteScan. The
	// sweep's stamp probes and gallops do fewer operations but report
	// this same number (via a closed form, see mergeComps), so the
	// meter depends on the lists alone.
	Comparisons int64
	// HashBuild counts insertions: the global arc set for VI (= m) or the
	// per-node local sets for LEI (= m as well, per §2.3).
	HashBuild int64
}

// ModelOps returns the paper's cost metric for the method's family.
func (s Stats) ModelOps() int64 {
	switch s.Method.Family() {
	case VertexIterator:
		return s.Candidates
	case ScanningEdgeIterator:
		return s.LocalScan + s.RemoteScan
	default:
		return s.Lookups
	}
}

// Run executes method m on the oriented graph o, invoking visit (which
// may be nil) for every triangle, and returns the run's Stats. It is
// RunCtx with a background context: unstoppable once started; servers
// and CLIs with deadlines use RunCtx instead. Options attach telemetry
// (WithRecorder) and never change the triangles or Stats.
func Run(o *digraph.Oriented, m Method, visit Visitor, opts ...Option) Stats {
	s, _ := RunCtx(context.Background(), o, m, visit, opts...)
	return s
}

// Count is a convenience wrapper that returns only the triangle count.
func Count(o *digraph.Oriented, m Method, opts ...Option) int64 {
	return Run(o, m, nil, opts...).Triangles
}
