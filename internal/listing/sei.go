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
// why Stats tracks both. The baselines scan with it, and it is the SEI
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

// suffixAbove returns the suffix of the ascending list with elements > v.
func suffixAbove(list []int32, v int32) []int32 {
	k, found := slices.BinarySearch(list, v)
	if found {
		k++
	}
	return list[k:]
}

// runSEI executes a scanning edge iterator (§2.3): for every directed
// edge it intersects a sublist at each endpoint through the worker's
// intersector. The local list belongs to the first visited node, the
// remote list to the second; their model volumes follow Table 1 and are
// charged by length, and Comparisons is the merge scan's count (via
// mergeComps), so no meter depends on how a window was intersected. The
// local sublist is always a window of the anchor's base adjacency list,
// which is what lets the intersector stamp the base once per anchor
// and answer every window probe in O(1). Methods E5 and E6 start the
// remote scan mid-list (located here by binary search), the property
// that makes them uncompetitive on real hardware (§2.3).
func runSEI(o *digraph.Oriented, m Method, it *intersector, visit Visitor, s *Stats, lo, hi int32) {
	switch m {
	case E1:
		// Visit z; for each y ∈ N⁺(z): local = N⁺(z) prefix below y
		// (candidates x), remote = N⁺(y). Common x closes △xyz.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			it.setBase(out)
			for j, y := range out {
				remote := o.Out(y)
				s.LocalScan += int64(j)
				s.RemoteScan += int64(len(remote))
				yy, zz := y, z
				s.Comparisons += it.win(0, j, remote, func(x int32) {
					s.Triangles++
					visit(x, yy, zz)
				})
			}
		}
	case E2:
		// Visit y; for each z ∈ N⁻(y): local = N⁺(y) (candidates x),
		// remote = N⁺(z) prefix below y.
		for y := lo; y < hi; y++ {
			local := o.Out(y)
			it.setBase(local)
			for _, z := range o.In(y) {
				remote := prefixBelow(o.Out(z), y)
				s.LocalScan += int64(len(local))
				s.RemoteScan += int64(len(remote))
				yy, zz := y, z
				s.Comparisons += it.win(0, len(local), remote, func(x int32) {
					s.Triangles++
					visit(x, yy, zz)
				})
			}
		}
	case E3:
		// Visit x; for each y ∈ N⁻(x): local = N⁻(x) suffix above y
		// (candidates z), remote = N⁻(y).
		for x := lo; x < hi; x++ {
			in := o.In(x)
			it.setBase(in)
			for j, y := range in {
				remote := o.In(y)
				s.LocalScan += int64(len(in) - j - 1)
				s.RemoteScan += int64(len(remote))
				xx, yy := x, y
				s.Comparisons += it.win(j+1, len(in), remote, func(z int32) {
					s.Triangles++
					visit(xx, yy, z)
				})
			}
		}
	case E4:
		// Visit z; for each x ∈ N⁺(z): local = N⁺(z) suffix above x
		// (candidates y), remote = N⁻(x) prefix below z.
		for z := lo; z < hi; z++ {
			out := o.Out(z)
			it.setBase(out)
			for j, x := range out {
				remote := prefixBelow(o.In(x), z)
				s.LocalScan += int64(len(out) - j - 1)
				s.RemoteScan += int64(len(remote))
				xx, zz := x, z
				s.Comparisons += it.win(j+1, len(out), remote, func(y int32) {
					s.Triangles++
					visit(xx, y, zz)
				})
			}
		}
	case E5:
		// Visit y; for each x ∈ N⁺(y): local = N⁻(y) (candidates z),
		// remote = N⁻(x) suffix above y — the mid-list start.
		for y := lo; y < hi; y++ {
			local := o.In(y)
			it.setBase(local)
			for _, x := range o.Out(y) {
				remote := suffixAbove(o.In(x), y)
				s.LocalScan += int64(len(local))
				s.RemoteScan += int64(len(remote))
				xx, yy := x, y
				s.Comparisons += it.win(0, len(local), remote, func(z int32) {
					s.Triangles++
					visit(xx, yy, z)
				})
			}
		}
	case E6:
		// Visit x; for each z ∈ N⁻(x): local = N⁻(x) prefix below z
		// (candidates y), remote = N⁺(z) suffix above x — mid-list.
		for x := lo; x < hi; x++ {
			in := o.In(x)
			it.setBase(in)
			for j, z := range in {
				remote := suffixAbove(o.Out(z), x)
				s.LocalScan += int64(j)
				s.RemoteScan += int64(len(remote))
				xx, zz := x, z
				s.Comparisons += it.win(0, j, remote, func(y int32) {
					s.Triangles++
					visit(xx, y, zz)
				})
			}
		}
	}
}
