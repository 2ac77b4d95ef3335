package listing

import (
	"slices"

	"trilist/internal/digraph"
)

// intersect merge-scans two ascending lists, invoking visit for every
// common element, and returns the number of pointer comparisons actually
// performed. A real scan early-exits when either list is exhausted, so
// the return value is at most len(a)+len(b) and may be much less — the
// paper's model cost charges the full sublist volumes instead, which is
// why Stats tracks both. CompactForward scans with it, and it is the SEI
// sweep's merge reference; the sweep's adaptive path reports the same
// count via the mergeComps closed form.
func intersect(a, b []int32, visit func(int32)) int64 {
	var i, j int
	var comps int64
	for i < len(a) && j < len(b) {
		comps++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			visit(a[i])
			i++
			j++
		}
	}
	return comps
}

// prefixBelow returns the prefix of the ascending list with elements < v.
func prefixBelow(list []int32, v int32) []int32 {
	k, _ := slices.BinarySearch(list, v)
	return list[:k]
}

// emitX, emitY and emitZ build an SEI window's match callback, which
// completes the triangle at its x, y or z corner, or return nil when
// there is no visitor, so a counting sweep calls nothing per match.
func emitX(visit Visitor, y, z int32) func(int32) {
	if visit == nil {
		return nil
	}
	return func(x int32) { visit(x, y, z) }
}

func emitY(visit Visitor, x, z int32) func(int32) {
	if visit == nil {
		return nil
	}
	return func(y int32) { visit(x, y, z) }
}

func emitZ(visit Visitor, x, y int32) func(int32) {
	if visit == nil {
		return nil
	}
	return func(z int32) { visit(x, y, z) }
}

// runSEI executes a scanning edge iterator (§2.3): for every directed
// edge it intersects a sublist at each endpoint through the worker's
// intersector. The local list belongs to the first visited node, the
// remote list to the second; their model volumes follow Table 1 and are
// charged by length, and Comparisons is the merge scan's count (via
// mergeComps), so no meter depends on how a window was intersected.
// The meters are summed into locals and added to s once per block;
// visit may be nil. The local sublist is always a window of the
// anchor's base adjacency list, which is what lets the intersector
// stamp the base once per anchor and answer every window probe in
// O(1). E2, E4, E5 and E6 cut the remote list at the anchor; the
// arena's cursor finds the cut (see arena.cut). E5 and E6 start the
// remote scan mid-list. §2.3 notes that locating that start costs an
// extra search the model does not charge, which makes them
// uncompetitive on real hardware; here the cursor locates it (O(1) per
// cut in a serial sweep), and Stats, like the model, charge only the
// scanned volumes.
func runSEI(o *digraph.Oriented, m Method, it *intersector, visit Visitor, s *Stats, lo, hi int32) {
	var local, remote, comps, tris int64
	ar := it.ar
	switch m {
	case E1:
		// Visit z; for each y ∈ N⁺(z): local = N⁺(z) prefix below y
		// (candidates x), remote = N⁺(y). Common x closes △xyz.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			it.setBase(out)
			for j, y := range out {
				rem := o.Out(y)
				local += int64(j)
				remote += int64(len(rem))
				c, k := it.win(0, j, rem, emitX(visit, y, z))
				comps += c
				tris += k
			}
		}
	case E2:
		// Visit y; for each z ∈ N⁻(y): local = N⁺(y) (candidates x),
		// remote = N⁺(z) prefix below y.
		for y := lo; y < hi; y++ {
			out := o.Out(y)
			it.setBase(out)
			for _, z := range o.In(y) {
				zOut := o.Out(z)
				rem := zOut[:ar.cut(zOut, z, y)]
				local += int64(len(out))
				remote += int64(len(rem))
				c, k := it.win(0, len(out), rem, emitX(visit, y, z))
				comps += c
				tris += k
			}
		}
	case E3:
		// Visit x; for each y ∈ N⁻(x): local = N⁻(x) suffix above y
		// (candidates z), remote = N⁻(y).
		for x := lo; x < hi; x++ {
			in := o.In(x)
			it.setBase(in)
			for j, y := range in {
				rem := o.In(y)
				local += int64(len(in) - j - 1)
				remote += int64(len(rem))
				c, k := it.win(j+1, len(in), rem, emitZ(visit, x, y))
				comps += c
				tris += k
			}
		}
	case E4:
		// Visit z; for each x ∈ N⁺(z): local = N⁺(z) suffix above x
		// (candidates y), remote = N⁻(x) prefix below z.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			it.setBase(out)
			for j, x := range out {
				xIn := o.In(x)
				rem := xIn[:ar.cut(xIn, x, z)]
				local += int64(len(out) - j - 1)
				remote += int64(len(rem))
				c, k := it.win(j+1, len(out), rem, emitY(visit, x, z))
				comps += c
				tris += k
			}
		}
	case E5:
		// Visit y; for each x ∈ N⁺(y): local = N⁻(y) (candidates z),
		// remote = N⁻(x) suffix above y — the mid-list start.
		for y := lo; y < hi; y++ {
			in := o.In(y)
			it.setBase(in)
			for _, x := range o.Out(y) {
				xIn := o.In(x)
				rem := xIn[ar.cut(xIn, x, y)+1:]
				local += int64(len(in))
				remote += int64(len(rem))
				c, k := it.win(0, len(in), rem, emitZ(visit, x, y))
				comps += c
				tris += k
			}
		}
	case E6:
		// Visit x; for each z ∈ N⁻(x): local = N⁻(x) prefix below z
		// (candidates y), remote = N⁺(z) suffix above x — mid-list.
		for x := lo; x < hi; x++ {
			in := o.In(x)
			it.setBase(in)
			for j, z := range in {
				zOut := o.Out(z)
				rem := zOut[ar.cut(zOut, z, x)+1:]
				local += int64(j)
				remote += int64(len(rem))
				c, k := it.win(0, j, rem, emitY(visit, x, z))
				comps += c
				tris += k
			}
		}
	}
	s.LocalScan += local
	s.RemoteScan += remote
	s.Comparisons += comps
	s.Triangles += tris
}
