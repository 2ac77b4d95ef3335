package listing

import (
	"trilist/internal/digraph"
	"trilist/internal/hashset"
)

// runVertex executes a vertex iterator (§2.2). All six variants generate
// candidate node pairs from one endpoint's neighbor lists and verify the
// closing edge with a probe of the global arc hash table; they differ in
// which triangle corner anchors the search (T1: largest, T2: middle,
// T3: smallest) and in the sweep order of the two inner loops (T4–T6
// mirror T1–T3 with the last two neighbors visited in reverse, which
// leaves the cost unchanged). The meters are summed into locals and
// added to s once per block; visit may be nil.
func runVertex(o *digraph.Oriented, m Method, arcs *hashset.EdgeSet, visit Visitor, s *Stats, lo, hi int32) {
	var cands, tris int64
	switch m {
	case T1:
		// Anchor z (largest): for each pair x < y in N⁺(z), probe y → x.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			for j := 1; j < len(out); j++ {
				y := out[j]
				for i := 0; i < j; i++ {
					x := out[i]
					cands++
					if arcs.Contains(y, x) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	case T4:
		// Same pairs as T1, inner loops swapped: sweep x first, then the
		// ys above it.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			for i := 0; i < len(out); i++ {
				x := out[i]
				for j := i + 1; j < len(out); j++ {
					y := out[j]
					cands++
					if arcs.Contains(y, x) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	case T2:
		// Anchor y (middle): pair each x ∈ N⁺(y) with each z ∈ N⁻(y) and
		// probe z → x.
		for y := lo; y < hi; y++ {
			out := o.Out(y)
			in := o.In(y)
			for _, x := range out {
				for _, z := range in {
					cands++
					if arcs.Contains(z, x) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	case T5:
		// T2 with the sweep order of the two independent loops reversed.
		for y := lo; y < hi; y++ {
			out := o.Out(y)
			in := o.In(y)
			for _, z := range in {
				for _, x := range out {
					cands++
					if arcs.Contains(z, x) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	case T3:
		// Anchor x (smallest): for each pair y < z in N⁻(x), probe z → y.
		for x := lo; x < hi; x++ {
			in := o.In(x)
			for j := 1; j < len(in); j++ {
				z := in[j]
				for i := 0; i < j; i++ {
					y := in[i]
					cands++
					if arcs.Contains(z, y) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	case T6:
		// T3 with the inner loops swapped.
		for x := lo; x < hi; x++ {
			in := o.In(x)
			for i := 0; i < len(in); i++ {
				y := in[i]
				for j := i + 1; j < len(in); j++ {
					z := in[j]
					cands++
					if arcs.Contains(z, y) {
						tris++
						if visit != nil {
							visit(x, y, z)
						}
					}
				}
			}
		}
	}
	s.Candidates += cands
	s.Triangles += tris
}
