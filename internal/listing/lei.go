package listing

import (
	"trilist/internal/digraph"
)

// runLEI executes a lookup edge iterator (§2.3): the first visited node's
// relevant list is inserted into a per-worker membership set once
// (Σ insertions = m over the whole run), and for every directed edge
// each element of the remote sublist probes that set. Lookup volumes
// follow Table 2 — exactly the remote volumes of the corresponding SEI
// methods, which is why LEI "can be reduced to vertex iterator in terms
// of both operation speed and cost" and the paper's analysis folds it
// into the VI family. The membership set is the per-worker stamp arena,
// a direct-address table standing in for the paper's hash table: the
// same insertions (HashBuild) and probes (Lookups), both
// length-determined, with O(1) stamps instead of hashing and no
// clearing. Every kernel uses it; kernels only change SEI intersections.
func runLEI(o *digraph.Oriented, m Method, ar *arena, visit Visitor, s *Stats, lo, hi int32) {
	fill := func(list []int32) {
		ar.stamp(list)
		s.HashBuild += int64(len(list))
	}
	switch m {
	case L1:
		// Hash N⁺(z); for each y ∈ N⁺(z), probe every x ∈ N⁺(y).
		// x < y holds automatically for x ∈ N⁺(y).
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			fill(out)
			for _, y := range out {
				for _, x := range o.Out(y) {
					s.Lookups++
					if ar.member(x) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	case L2:
		// Hash N⁺(y); for each z ∈ N⁻(y), probe the prefix of N⁺(z)
		// below y.
		for y := lo; y < hi; y++ {
			fill(o.Out(y))
			for _, z := range o.In(y) {
				for _, x := range prefixBelow(o.Out(z), y) {
					s.Lookups++
					if ar.member(x) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	case L3:
		// Hash N⁻(x); for each y ∈ N⁻(x), probe every z ∈ N⁻(y).
		// z > y holds automatically for z ∈ N⁻(y).
		for x := lo; x < hi; x++ {
			in := o.In(x)
			fill(in)
			for _, y := range in {
				for _, z := range o.In(y) {
					s.Lookups++
					if ar.member(z) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	case L4:
		// Hash N⁺(z); for each x ∈ N⁺(z), probe the prefix of N⁻(x)
		// below z. y > x holds automatically for y ∈ N⁻(x).
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			fill(out)
			for _, x := range out {
				for _, y := range prefixBelow(o.In(x), z) {
					s.Lookups++
					if ar.member(y) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	case L5:
		// Hash N⁻(y); for each x ∈ N⁺(y), probe the suffix of N⁻(x)
		// above y.
		for y := lo; y < hi; y++ {
			fill(o.In(y))
			for _, x := range o.Out(y) {
				for _, z := range suffixAbove(o.In(x), y) {
					s.Lookups++
					if ar.member(z) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	case L6:
		// Hash N⁻(x); for each z ∈ N⁻(x), probe the suffix of N⁺(z)
		// above x. y < z holds automatically for y ∈ N⁺(z).
		for x := lo; x < hi; x++ {
			in := o.In(x)
			fill(in)
			for _, z := range in {
				for _, y := range suffixAbove(o.Out(z), x) {
					s.Lookups++
					if ar.member(y) {
						s.Triangles++
						visit(x, y, z)
					}
				}
			}
		}
	}
}
