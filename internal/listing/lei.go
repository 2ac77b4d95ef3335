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
// clearing. L2, L4, L5 and L6 probe a prefix or suffix of a neighbor's
// list; the arena's cursor finds the cut (see arena.cut), so a serial
// sweep pays no search for it. The meters are summed by list length
// into locals and added to s once per block; visit may be nil.
func runLEI(o *digraph.Oriented, m Method, ar *arena, visit Visitor, s *Stats, lo, hi int32) {
	var build, lookups, tris int64
	epoch := ar.epoch
	switch m {
	case L1:
		// Hash N⁺(z); for each y ∈ N⁺(z), probe every x ∈ N⁺(y).
		// x < y holds automatically for x ∈ N⁺(y).
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			cur := ar.stamp(out)
			build += int64(len(out))
			for _, y := range out {
				probe := o.Out(y)
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, x := range probe {
					if epoch[x] == cur {
						tris++
						visit(x, y, z)
					}
				}
			}
		}
	case L2:
		// Hash N⁺(y); for each z ∈ N⁻(y), probe the prefix of N⁺(z)
		// below y.
		for y := lo; y < hi; y++ {
			out := o.Out(y)
			cur := ar.stamp(out)
			build += int64(len(out))
			for _, z := range o.In(y) {
				zOut := o.Out(z)
				probe := zOut[:ar.cut(zOut, z, y)]
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, x := range probe {
					if epoch[x] == cur {
						tris++
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
			cur := ar.stamp(in)
			build += int64(len(in))
			for _, y := range in {
				probe := o.In(y)
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, z := range probe {
					if epoch[z] == cur {
						tris++
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
			cur := ar.stamp(out)
			build += int64(len(out))
			for _, x := range out {
				xIn := o.In(x)
				probe := xIn[:ar.cut(xIn, x, z)]
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, y := range probe {
					if epoch[y] == cur {
						tris++
						visit(x, y, z)
					}
				}
			}
		}
	case L5:
		// Hash N⁻(y); for each x ∈ N⁺(y), probe the suffix of N⁻(x)
		// above y.
		for y := lo; y < hi; y++ {
			in := o.In(y)
			cur := ar.stamp(in)
			build += int64(len(in))
			for _, x := range o.Out(y) {
				xIn := o.In(x)
				probe := xIn[ar.cut(xIn, x, y)+1:]
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, z := range probe {
					if epoch[z] == cur {
						tris++
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
			cur := ar.stamp(in)
			build += int64(len(in))
			for _, z := range in {
				zOut := o.Out(z)
				probe := zOut[ar.cut(zOut, z, x)+1:]
				lookups += int64(len(probe))
				if visit == nil {
					tris += countStamped(epoch, cur, probe)
					continue
				}
				for _, y := range probe {
					if epoch[y] == cur {
						tris++
						visit(x, y, z)
					}
				}
			}
		}
	}
	s.HashBuild += build
	s.Lookups += lookups
	s.Triangles += tris
}
