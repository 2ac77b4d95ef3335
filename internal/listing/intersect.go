package listing

import (
	"slices"
	"sync"
)

// skewRatio is the length ratio beyond which an SEI window abandons
// the stamp-probe for galloping: once the remote list is this many times
// longer than the local window, |window|·log|remote| probes beat the
// O(|remote|) scan. 8 keeps the crossover conservative: at ratio 8
// galloping does at most a handful of probes per window element.
const skewRatio = 8

// arena is per-worker scratch for the stamp probes: for each node of
// the currently stamped base list it records the node's index in that
// list, validated by an epoch so re-stamping is O(|base|) with no
// clearing. One arena serves both SEI window probes (which need the
// position) and LEI membership tests (which only need the epoch).
type arena struct {
	pos   []int32  // pos[v] = index of v in the stamped base list
	epoch []uint32 // epoch[v] == cur ⇔ v is in the stamped base list
	cur   uint32
}

// arenaPool recycles arenas across runs so repeated sweeps (Monte-Carlo
// trials, benchmarks, the trid job loop) allocate no per-run scratch.
var arenaPool sync.Pool

// getArena returns an arena able to index nodes [0, n).
func getArena(n int) *arena {
	a, _ := arenaPool.Get().(*arena)
	if a == nil {
		a = &arena{}
	}
	a.ensure(n)
	return a
}

func putArena(a *arena) { arenaPool.Put(a) }

func (a *arena) ensure(n int) {
	if len(a.pos) >= n {
		return
	}
	a.pos = make([]int32, n)
	a.epoch = make([]uint32, n)
	// cur must differ from the zeroed epoch array or an unstamped arena
	// would report every node as a member.
	a.cur = 1
}

// stamp records base as the current list. Stale stamps from prior
// anchors (or prior graphs, when the arena is pooled) are invalidated
// by the epoch bump; the epoch array is cleared only on uint32 wrap.
func (a *arena) stamp(base []int32) {
	a.cur++
	if a.cur == 0 {
		clear(a.epoch)
		a.cur = 1
	}
	for i, v := range base {
		a.pos[v] = int32(i)
		a.epoch[v] = a.cur
	}
}

// member reports whether v is in the stamped base list.
func (a *arena) member(v int32) bool { return a.epoch[v] == a.cur }

// upperBound returns the number of elements <= v in an ascending list.
func upperBound(list []int32, v int32) int {
	k, found := slices.BinarySearch(list, v)
	if found {
		k++
	}
	return k
}

// mergeComps returns, in O(log) time, the exact number of pointer
// advances the two-pointer merge scan (intersect) performs on ascending
// duplicate-free lists a and b containing `matches` common elements.
// The merge stops when either list is exhausted; if a runs out first its
// len(a) elements were all consumed along with the elements of b not
// exceeding a's last element, and each of the `matches` common elements
// consumed one step for two elements. This closed form is what lets the
// gallop and stamp-probe paths report Comparisons bitwise identical to
// the merge scan without doing the merge.
func mergeComps(a, b []int32, matches int64) int64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	al, bl := a[len(a)-1], b[len(b)-1]
	switch {
	case al < bl:
		return int64(len(a)+upperBound(b, al)) - matches
	case al > bl:
		return int64(len(b)+upperBound(a, bl)) - matches
	default:
		return int64(len(a)+len(b)) - matches
	}
}

// gallopSearch returns the smallest index i in [lo, len(list)] with
// list[i] >= v, by exponential probing from lo followed by binary
// search over the final bracket. Starting from the previous match
// position makes a full gallop-intersection O(min·log(max/min)).
func gallopSearch(list []int32, lo int, v int32) int {
	if lo >= len(list) || list[lo] >= v {
		return lo
	}
	// Invariant: list[lo] < v. Double the step until it overshoots.
	step := 1
	hi := lo + 1
	for hi < len(list) && list[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	// Binary search in (lo, hi]: list[lo] < v, list[hi] >= v (or hi = len).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// gallopIntersect emits the common elements of two ascending lists in
// ascending order by galloping the shorter list's elements through the
// longer, and returns the number of matches.
func gallopIntersect(a, b []int32, emit func(int32)) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var matches int64
	j := 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			matches++
			emit(v)
			j++
		}
	}
	return matches
}

// intersector is the per-worker SEI intersection engine: the scratch
// arena and the anchor's current base adjacency list, stamped lazily on
// the first window that probes it, so anchors whose windows all gallop
// never pay for the stamp. Every window pair takes one adaptive path.
// The stamp amortizes to O(1) per window (an anchor of degree d
// performs ~d window intersections against an O(d) stamp), after which
// a probe costs O(|remote|), never worse than the merge's
// O(|window|+|remote|). Only when the window is skewRatio times shorter
// than the remote list does galloping's O(|window|·log|remote|) win,
// and the path switches to it.
//
// mergeRef replaces the adaptive path by the plain two-pointer merge
// scan. It is the reference the tests compare the adaptive path
// against; nothing else selects it.
type intersector struct {
	ar       *arena
	base     []int32
	stamped  bool // pos/epoch stamp valid for base
	mergeRef bool
}

// newIntersector builds one worker's engine for a graph on n nodes.
func newIntersector(n int, mergeRef bool) *intersector {
	if mergeRef {
		return &intersector{mergeRef: true}
	}
	return &intersector{ar: getArena(n)}
}

// release returns pooled scratch; the intersector is dead afterwards.
func (it *intersector) release() {
	if it.ar != nil {
		putArena(it.ar)
		it.ar = nil
	}
}

// setBase installs the anchor's base adjacency list. Every window
// passed to win must be a subslice of it.
func (it *intersector) setBase(base []int32) {
	it.base = base
	it.stamped = false
}

// probe intersects base[alo:ahi] with remote via the stamped arena,
// emitting matches in ascending order (remote is ascending).
func (it *intersector) probe(alo, ahi int, remote []int32, emit func(int32)) int64 {
	if !it.stamped {
		it.ar.stamp(it.base)
		it.stamped = true
	}
	ar := it.ar
	var matches int64
	for _, v := range remote {
		if ar.epoch[v] == ar.cur {
			if p := ar.pos[v]; p >= int32(alo) && p < int32(ahi) {
				matches++
				emit(v)
			}
		}
	}
	return matches
}

// win intersects the window base[alo:ahi] with remote, emitting each
// common element exactly once in ascending order, and returns the
// merge-equivalent comparison count, the same on either path.
func (it *intersector) win(alo, ahi int, remote []int32, emit func(int32)) int64 {
	local := it.base[alo:ahi]
	switch {
	case len(local) == 0 || len(remote) == 0:
		return 0
	case it.mergeRef:
		return intersect(local, remote, emit)
	case len(local)*skewRatio <= len(remote):
		return mergeComps(local, remote, gallopIntersect(local, remote, emit))
	default:
		return mergeComps(local, remote, it.probe(alo, ahi, remote, emit))
	}
}
