package listing

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Kernel selects the neighbor-intersection strategy used by the
// scanning edge iterators (E1–E6). The paper prices every method in
// elementary operations over sorted adjacency lists; a kernel changes
// how those operations are executed on real hardware, never how many
// the model charges — Stats is bitwise identical under every kernel
// (the fast kernels report the merge-equivalent Comparisons count in
// closed form, see mergeComps), so the analytical tables are untouched
// while wall-clock drops on skewed inputs.
//
// Vertex iterators (T1–T6) probe a global arc hash table and lookup
// edge iterators (L1–L6) the per-worker stamp arena; neither performs
// list intersection, so the kernel choice does not affect them.
type Kernel int

const (
	// KernelMerge is the classic two-pointer merge scan — the repo's
	// historical single strategy and the zero value, so existing callers
	// keep today's behavior. O(|a| + |b|) per pair, fully sequential.
	KernelMerge Kernel = iota
	// KernelGallop iterates the shorter list and locates each element in
	// the longer one by exponential (galloping) search —
	// O(min·log(max/min)) per pair, the winner when lists are skewed.
	KernelGallop
	// KernelBitmap stamps the anchor's base adjacency list into a
	// per-worker position arena once per anchor, then answers each
	// window intersection by probing the remote list's elements in O(1)
	// each — O(|remote|) per pair after an O(d) amortized stamp.
	KernelBitmap
	// KernelAuto picks per pair by length ratio. The anchor's stamp is
	// paid once per anchor and amortizes to O(1) per window (an anchor
	// with degree d performs ~d window intersections against an O(d)
	// stamp), after which a probe costs O(|remote|) — never worse than
	// the merge's O(|window|+|remote|). Auto therefore stamp-probes by
	// default and switches to galloping only when the window is much
	// shorter than the remote list, where O(|window|·log|remote|) beats
	// scanning the remote. This adaptivity is what dominates any fixed
	// strategy on power-law graphs.
	KernelAuto
	// KernelBits is the pure bit-parallel tier: every vertex whose
	// remote-side degree reaches the core threshold (default 1, i.e.
	// everything, clamped by the row-memory budget) carries a packed
	// n-bit adjacency row, the anchor's base list is stamped into a
	// per-worker bitset, and each window intersection is a word-wise
	// AND + popcount walk over the pair's combined value range —
	// up to 64 candidates per elementary operation. Windows whose
	// remote owner has no row (budget-evicted) fall back to the merge.
	KernelBits
	// KernelHybrid splits core/fringe by the degree threshold: a window
	// goes bit-parallel only when the remote owner has a packed row AND
	// the word count of the pair's clamped value range undercuts the
	// merge volume |window|+|remote| — the dense core, where the model
	// says the comparisons live. Everything else falls back to
	// KernelAuto's gallop/stamp-probe adaptivity, so the fringe keeps
	// the best list strategy.
	KernelHybrid

	numKernels
)

// Kernels lists all kernels in declaration order.
var Kernels = []Kernel{KernelMerge, KernelGallop, KernelBitmap, KernelAuto, KernelBits, KernelHybrid}

func (k Kernel) String() string {
	switch k {
	case KernelMerge:
		return "merge"
	case KernelGallop:
		return "gallop"
	case KernelBitmap:
		return "bitmap"
	case KernelAuto:
		return "auto"
	case KernelBits:
		return "bits"
	case KernelHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel resolves a kernel name (case-insensitive). The empty
// string resolves to KernelAuto: user-facing surfaces (CLIs, the trid
// job API) default to the adaptive kernel, which is safe because every
// kernel produces identical triangles and Stats.
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return KernelAuto, nil
	case "merge", "scan":
		return KernelMerge, nil
	case "gallop", "galloping", "binary":
		return KernelGallop, nil
	case "bitmap", "stamp":
		return KernelBitmap, nil
	case "bits", "bitset":
		return KernelBits, nil
	case "hybrid":
		return KernelHybrid, nil
	default:
		return 0, fmt.Errorf("unknown kernel %q (want merge, gallop, bitmap, auto, bits, or hybrid)", s)
	}
}

// skewRatio is the length ratio beyond which KernelAuto abandons the
// stamp-probe for galloping: once the remote list is this many times
// longer than the local window, |window|·log|remote| probes beat the
// O(|remote|) scan. 8 keeps the crossover conservative: at ratio 8
// galloping does at most a handful of probes per window element.
const skewRatio = 8

// arena is per-worker scratch for the stamp kernels: for each node of
// the currently stamped base list it records the node's index in that
// list, validated by an epoch so re-stamping is O(|base|) with no
// clearing. One arena serves both SEI window probes (which need the
// position) and LEI membership tests (which only need the epoch).
type arena struct {
	pos   []int32  // pos[v] = index of v in the stamped base list
	epoch []uint32 // epoch[v] == cur ⇔ v is in the stamped base list
	cur   uint32
	// Bit-kernel scratch, sized lazily by ensureBits: the anchor's base
	// list as an n-bit set. Cleared incrementally by walking the
	// previously stamped list (bitBase), so re-stamping costs
	// O(|prev| + |base|) with no full clears — the bitset analogue of
	// the epoch trick above.
	bits    []uint64
	bitBase []int32
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

// ensureBits sizes the bitset for nodes [0, n). A pooled arena may
// carry stale set bits from a prior run; they stay tracked by bitBase
// (adjacency lists are immutable), so the next stampBits clears them.
func (a *arena) ensureBits(n int) {
	words := (n + 63) / 64
	if len(a.bits) < words {
		a.bits = make([]uint64, words)
		a.bitBase = nil
	}
}

// stampBits records base as the current n-bit set, clearing the
// previous stamp by walking it.
func (a *arena) stampBits(base []int32) {
	for _, v := range a.bitBase {
		a.bits[v>>6] &^= 1 << uint(v&63)
	}
	for _, v := range base {
		a.bits[v>>6] |= 1 << uint(v&63)
	}
	a.bitBase = base
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
// galloping and bitmap kernels report Comparisons bitwise identical to
// the merge kernel without doing the merge.
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

// intersector is the per-worker SEI intersection engine: it carries the
// kernel choice, the scratch arena (bitmap/auto only), and the anchor's
// current base adjacency list, stamped lazily on first bitmap use so
// merge- or gallop-only anchors never pay for it.
type intersector struct {
	kern       Kernel
	ar         *arena
	ba         *bitAdj // shared packed core rows; non-nil ⇔ bits/hybrid
	base       []int32
	stamped    bool // pos/epoch stamp valid for base
	bitStamped bool // arena bitset stamp valid for base
	// Tier accounting for bits/hybrid, folded into the run's TierStats
	// at release.
	corePairs   int64
	fringePairs int64
}

// newIntersector builds one worker's engine for a graph on n nodes.
// ba carries the shared core rows and must be non-nil exactly for the
// bit-parallel kernels.
func newIntersector(kern Kernel, n int, ba *bitAdj) *intersector {
	it := &intersector{kern: kern, ba: ba}
	switch kern {
	case KernelBitmap, KernelAuto:
		it.ar = getArena(n)
	case KernelBits, KernelHybrid:
		it.ar = getArena(n)
		it.ar.ensureBits(n)
	}
	return it
}

// arenaBytes reports this worker's scratch footprint for TierStats.
func (it *intersector) arenaBytes() int64 {
	if it.ar == nil {
		return 0
	}
	return int64(len(it.ar.pos))*4 + int64(len(it.ar.epoch))*4 + int64(len(it.ar.bits))*8
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
	it.bitStamped = false
}

func (it *intersector) ensureStamp() {
	if !it.stamped {
		it.ar.stamp(it.base)
		it.stamped = true
	}
}

func (it *intersector) ensureBitStamp() {
	if !it.bitStamped {
		it.ar.stampBits(it.base)
		it.bitStamped = true
	}
}

// probe intersects base[alo:ahi] with remote via the stamped arena,
// emitting matches in ascending order (remote is ascending).
func (it *intersector) probe(alo, ahi int, remote []int32, emit func(int32)) int64 {
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

// win intersects the window base[alo:ahi] with remote under the
// configured kernel, emitting each common element exactly once in
// ascending order, and returns the merge-equivalent comparison count —
// identical for every kernel, so Stats.Comparisons is kernel-invariant.
// owner is the vertex whose side adjacency the remote list is a
// (possibly trimmed) sublist of; the bit-parallel kernels use it to
// look up the owner's packed core row.
func (it *intersector) win(alo, ahi int, owner int32, remote []int32, emit func(int32)) int64 {
	local := it.base[alo:ahi]
	la, lr := len(local), len(remote)
	if la == 0 || lr == 0 {
		return 0
	}
	switch it.kern {
	case KernelMerge:
		return intersect(local, remote, emit)
	case KernelGallop:
		return mergeComps(local, remote, gallopIntersect(local, remote, emit))
	case KernelBitmap:
		it.ensureStamp()
		return mergeComps(local, remote, it.probe(alo, ahi, remote, emit))
	case KernelBits:
		// Pure bit tier: word-parallel whenever the owner kept a row
		// under the budget, classic merge for the evicted fringe.
		if row := it.ba.rows[owner]; row != nil {
			it.corePairs++
			return it.bitWin(alo, ahi, row, remote, emit)
		}
		it.fringePairs++
		return intersect(local, remote, emit)
	case KernelHybrid:
		// Core×core goes bit-parallel only when the clamped value range
		// is cheaper in words than the merge is in comparisons; the
		// fringe falls through to KernelAuto's adaptive list strategy.
		if row := it.ba.rows[owner]; row != nil && spanWords(local, remote) <= la+lr {
			it.corePairs++
			return it.bitWin(alo, ahi, row, remote, emit)
		}
		it.fringePairs++
		fallthrough
	default: // KernelAuto: pick per pair by length ratio.
		if la*skewRatio <= lr {
			// Local window much shorter: galloping's la·log(lr) beats
			// scanning the remote list.
			return mergeComps(local, remote, gallopIntersect(local, remote, emit))
		}
		// Otherwise stamp-probe: the stamp amortizes to O(1) per window
		// over the anchor's sweep, and the O(lr) probe never loses to
		// the merge's O(la+lr).
		it.ensureStamp()
		return mergeComps(local, remote, it.probe(alo, ahi, remote, emit))
	}
}
