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

// arena is per-worker scratch. Its epoch stamps mark the nodes of the
// currently stamped base list, validated by an epoch so re-stamping is
// O(|base|) with no clearing; one arena serves both SEI window probes
// and LEI membership tests. Its cursors serve the sweeps that cut a
// remote list at the anchor (see cut).
type arena struct {
	epoch []uint32 // epoch[v] == cur ⇔ v is in the stamped base list
	cur   uint32
	// cursor[v] is where the next cut of v's cut list starts searching.
	cursor []int32
}

// arenaPool recycles arenas across runs so repeated sweeps (Monte-Carlo
// trials, benchmarks, the trid job loop) allocate no per-run scratch.
var arenaPool sync.Pool

// getArena returns an arena able to index nodes [0, n). cuts readies
// the cursors of nodes [0, n) for a sweep that cuts remote lists: a
// pooled arena's cursors belong to its previous run, so they are
// zeroed here, once per run and worker.
func getArena(n int, cuts bool) *arena {
	a, _ := arenaPool.Get().(*arena)
	if a == nil {
		a = &arena{}
	}
	a.ensure(n)
	if cuts {
		if len(a.cursor) < n {
			a.cursor = make([]int32, n)
		} else {
			clear(a.cursor[:n])
		}
	}
	return a
}

func putArena(a *arena) { arenaPool.Put(a) }

func (a *arena) ensure(n int) {
	if len(a.epoch) >= n {
		return
	}
	a.epoch = make([]uint32, n)
	// cur must differ from the zeroed epoch array or an unstamped arena
	// would report every node as a member.
	a.cur = 1
}

// stamp records base as the current list and returns its epoch. Stale
// stamps from prior anchors (or prior graphs, when the arena is pooled)
// are invalidated by the epoch bump; the epoch array is cleared only on
// uint32 wrap.
func (a *arena) stamp(base []int32) uint32 {
	a.cur++
	if a.cur == 0 {
		clear(a.epoch)
		a.cur = 1
	}
	for _, v := range base {
		a.epoch[v] = a.cur
	}
	return a.cur
}

// cut returns the position of v in list, the ascending cut list owned
// by node owner, which must contain v. Every cut value is an element of
// its cut list (z ∈ N⁻(y) ⇔ y ∈ N⁺(z)), and a worker meets an owner's
// cuts in ascending anchor order, so the position only grows: the
// search gallops forward from the owner's cursor and leaves the cursor
// just past v. A serial sweep finds v at the cursor itself, in O(1); a
// worker that skipped other workers' blocks gallops over the gap.
func (a *arena) cut(list []int32, owner, v int32) int {
	k := gallopSearch(list, int(a.cursor[owner]), v)
	a.cursor[owner] = int32(k + 1)
	return k
}

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
// longer, and returns the number of matches. A nil emit only counts.
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
			if emit != nil {
				emit(v)
			}
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
	stamped  bool // epoch stamp valid for base
	mergeRef bool
}

// release returns pooled scratch; the intersector is dead afterwards.
func (it *intersector) release() {
	putArena(it.ar)
	it.ar = nil
}

// setBase installs the anchor's base adjacency list. Every window
// passed to win must be a subslice of it.
func (it *intersector) setBase(base []int32) {
	it.base = base
	it.stamped = false
}

// probe intersects the window with remote via the stamped arena,
// emitting matches in ascending order (remote is ascending) unless emit
// is nil, and returns the number of matches. It tests membership in the
// whole base list, which is exact for every SEI method: the base
// elements outside the window lie outside the remote list's value
// range. E1 and E6 take the prefix below a bound that every remote
// element is also below; E3 and E4 take the suffix above a bound that
// every remote element is also above; E2 and E5 take the whole list.
func (it *intersector) probe(remote []int32, emit func(int32)) int64 {
	if !it.stamped {
		it.ar.stamp(it.base)
		it.stamped = true
	}
	epoch, cur := it.ar.epoch, it.ar.cur
	if emit == nil {
		return countStamped(epoch, cur, remote)
	}
	var matches int64
	for _, v := range remote {
		if epoch[v] == cur {
			matches++
			emit(v)
		}
	}
	return matches
}

// countStamped returns how many elements of list carry the stamp cur
// in epoch. Its loop has no branch on a match, so a counting sweep pays
// no misprediction per triangle.
func countStamped(epoch []uint32, cur uint32, list []int32) int64 {
	var matches int64
	for _, v := range list {
		if epoch[v] == cur {
			matches++
		}
	}
	return matches
}

// win intersects the window base[alo:ahi] with remote, emitting each
// common element exactly once in ascending order (none if emit is nil),
// and returns the merge-equivalent comparison count, the same on either
// path, and the number of common elements.
func (it *intersector) win(alo, ahi int, remote []int32, emit func(int32)) (comps, matches int64) {
	local := it.base[alo:ahi]
	switch {
	case len(local) == 0 || len(remote) == 0:
		return 0, 0
	case it.mergeRef:
		comps = intersect(local, remote, func(v int32) {
			matches++
			if emit != nil {
				emit(v)
			}
		})
		return comps, matches
	case len(local)*skewRatio <= len(remote):
		matches = gallopIntersect(local, remote, emit)
	default:
		matches = it.probe(remote, emit)
	}
	return mergeComps(local, remote, matches), matches
}
