package planner

import (
	"math"
	mbits "math/bits"
	"sync"
	"time"

	"trilist/internal/degseq"
	"trilist/internal/listing"
)

// KernelCoeffs are wall-clock costs of the elementary operations the
// intersection kernels are built from, in nanoseconds. The model of
// eq. (50) counts operations; these constants convert counts into time
// so kernel=auto can be priced instead of guessed. Plans use the
// checked-in plannedKernelCoeffs; CalibrateKernels measures the same
// quantities on the running host (the paper's Table 3 "elementary
// operation speed" measurement, automated) for reports that want to
// compare the two.
type KernelCoeffs struct {
	// MergeNs is the cost of one two-pointer merge comparison/advance.
	MergeNs float64 `json:"merge_ns"`
	// GallopNs is the cost of one exponential-search probe step.
	GallopNs float64 `json:"gallop_ns"`
	// ProbeNs is the cost of one stamp-arena membership probe — the
	// per-remote-element cost of the bitmap/auto kernels.
	ProbeNs float64 `json:"probe_ns"`
	// WordNs is the cost of one 64-bit AND + popcount word — the
	// per-word cost of the bit-parallel tier.
	WordNs float64 `json:"word_ns"`
}

// plannedKernelCoeffs prices every plan's kernel choice: the medians of
// six CalibrateKernels runs, each in a fresh process, on a 2-CPU
// x86-64 host. Checked in so that a plan never depends on the host it
// is computed on.
var plannedKernelCoeffs = KernelCoeffs{MergeNs: 3.2, GallopNs: 2.7, ProbeNs: 2.1, WordNs: 2.1}

var (
	coeffsOnce sync.Once
	coeffsVal  KernelCoeffs
)

// CalibrateKernels measures KernelCoeffs with a microbenchmark the
// first time it is called and returns the cached value afterwards
// (~1 ms once per process). Values are machine-dependent by design,
// which is why plans do not use them.
func CalibrateKernels() KernelCoeffs {
	coeffsOnce.Do(func() { coeffsVal = measureKernelCoeffs() })
	return coeffsVal
}

// calSink defeats dead-code elimination of the measurement loops.
var calSink int64

// timeOp runs op (which performs `ops` elementary operations) until at
// least 100µs have elapsed, three times, and returns the best ns/op —
// minimum-of-reps is the standard defense against scheduler noise in
// a microbenchmark this small.
func timeOp(ops int64, op func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		var done int64
		for time.Since(start) < 100*time.Microsecond {
			op()
			done += ops
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(done); ns < best {
			best = ns
		}
	}
	return best
}

func measureKernelCoeffs() KernelCoeffs {
	// Synthetic sorted lists with the density adjacency windows have;
	// sizes big enough to spill L1 the way real sweeps do is not the
	// point — relative op costs are.
	const L = 4096
	a := make([]int32, L)
	b := make([]int32, L)
	short := make([]int32, 64)
	for i := range a {
		a[i] = int32(2 * i)
		b[i] = int32(3 * i)
	}
	for i := range short {
		short[i] = int32(61 * i)
	}
	var c KernelCoeffs

	// Merge: instrumented two-pointer scan, cost per comparison.
	var mergeComps int64
	mergeOnce := func() int64 {
		var i, j int
		var comps, hits int64
		for i < len(a) && j < len(b) {
			comps++
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				hits++
				i++
				j++
			}
		}
		calSink += hits
		return comps
	}
	mergeComps = mergeOnce()
	c.MergeNs = timeOp(mergeComps, func() { calSink += mergeOnce() })

	// Gallop: exponential search of each short element through b,
	// cost per probe step (the doubling loop + binary bracket).
	gallopOnce := func() int64 {
		var probes int64
		j := 0
		for _, v := range short {
			if j >= len(b) {
				break
			}
			step := 1
			lo, hi := j, j+1
			for hi < len(b) && b[hi] < v {
				lo = hi
				step <<= 1
				hi = lo + step
				probes++
			}
			if hi > len(b) {
				hi = len(b)
			}
			for lo+1 < hi {
				mid := int(uint(lo+hi) >> 1)
				if b[mid] < v {
					lo = mid
				} else {
					hi = mid
				}
				probes++
			}
			j = hi
			probes++
		}
		calSink += int64(j)
		return probes
	}
	gallopProbes := gallopOnce()
	c.GallopNs = timeOp(gallopProbes, func() { calSink += gallopOnce() })

	// Stamp probe: epoch check + bounds check per remote element.
	epoch := make([]uint32, 3*L)
	pos := make([]int32, 3*L)
	for i, v := range a {
		epoch[v] = 1
		pos[v] = int32(i)
	}
	probeOnce := func() int64 {
		var hits int64
		for _, v := range b {
			if epoch[v] == 1 {
				if p := pos[v]; p >= 0 && p < L {
					hits++
				}
			}
		}
		calSink += hits
		return int64(len(b))
	}
	c.ProbeNs = timeOp(probeOnce(), func() { calSink += probeOnce() })

	// Bit word: AND + popcount per 64-bit word.
	p := make([]uint64, L)
	q := make([]uint64, L)
	for i := range p {
		p[i] = uint64(i) * 0x9e3779b97f4a7c15
		q[i] = uint64(i) * 0xbf58476d1ce4e5b9
	}
	wordOnce := func() int64 {
		var hits int64
		for i := range p {
			hits += int64(mbits.OnesCount64(p[i] & q[i]))
		}
		calSink += hits
		return int64(len(p))
	}
	c.WordNs = timeOp(wordOnce(), func() { calSink += wordOnce() })
	return c
}

// KernelPlan is the priced intersection-kernel choice for a graph: the
// kernel a kernel=auto job should run, the core degree threshold for
// the bit-parallel tier, and the economics behind the choice. It
// applies to scanning-edge-iterator execution; vertex and lookup
// iterators do no list intersection, so jobs planned onto them keep
// the adaptive list kernel regardless.
type KernelPlan struct {
	// Kernel is the priced choice: KernelHybrid when the predicted
	// core-tier win clears the margin, KernelAuto otherwise.
	Kernel listing.Kernel
	// CoreThreshold is τ: the smallest degree whose predicted core size
	// active·P(D ≥ τ) keeps the packed rows inside
	// listing.DefaultBitRowBudget — the fitted-distribution analogue of
	// the budget clamp the listing layer applies to the real histogram.
	CoreThreshold int32
	// CoreVertices is the predicted core size active·P(D ≥ τ); RowBytes
	// the predicted packed-row footprint.
	CoreVertices int64
	RowBytes     int64
	// CoreShare is the predicted fraction of pairwise intersection work
	// carried by core vertices (d²-weighted tail mass — a vertex of
	// degree d appears in Θ(d) windows of average length Θ(d)).
	CoreShare float64
	// Gain is the predicted fraction of intersection time the hybrid
	// tier saves over the adaptive list kernel: CoreShare scaled by the
	// word-vs-probe advantage on a core pair. The hybrid is chosen when
	// Gain ≥ kernelGainMargin.
	Gain float64
	// Coeffs are the checked-in per-operation costs the prices used.
	Coeffs KernelCoeffs
}

// kernelGainMargin is the predicted time saving below which the planner
// keeps the adaptive list kernel: the bit tier pays a real row-build
// and memory cost the per-pair model does not see, so a sub-5% paper
// win is not worth it.
const kernelGainMargin = 0.05

// tailMoments sums P(D ≥ τ), E[D·1{D ≥ τ}] and E[D²·1{D ≥ τ}] over the
// distribution's support, capping unbounded supports at the 1−1e-9
// quantile (the truncated mass is negligible under any α > 1 tail).
func tailMoments(dist degseq.Dist, tau int64) (pTail, m1, m2 float64) {
	top := dist.Max()
	if top > 1<<24 {
		top = dist.Quantile(1 - 1e-9)
		if top > 1<<24 {
			top = 1 << 24
		}
	}
	for d := tau; d <= top; d++ {
		p := dist.PMF(d)
		if p == 0 {
			continue
		}
		x := float64(d)
		pTail += p
		m1 += x * p
		m2 += x * x * p
	}
	return pTail, m1, m2
}

// planKernel prices the kernel choice for a graph with `active`
// non-isolated nodes out of `nodes` total (rows span all node ids).
func planKernel(dist degseq.Dist, active, nodes int64, co KernelCoeffs) KernelPlan {
	kp := KernelPlan{Kernel: listing.KernelAuto, CoreThreshold: 1, Coeffs: co}
	if nodes <= 0 || active <= 0 {
		return kp
	}
	words := (nodes + 63) / 64
	rowBytes := words * 8
	maxRows := int64(listing.DefaultBitRowBudget) / rowBytes
	if maxRows <= 0 {
		// One row alone overflows the budget: the bit tier cannot exist
		// at this scale.
		return kp
	}
	tau := int64(1)
	if maxRows < active {
		// Smallest τ with active·P(D ≥ τ) ≤ maxRows, via the quantile:
		// P(D ≥ τ) ≤ maxRows/active ⇔ CDF(τ−1) ≥ 1 − maxRows/active.
		tau = dist.Quantile(1-float64(maxRows)/float64(active)) + 1
	}
	if tau > math.MaxInt32 {
		tau = math.MaxInt32
	}
	kp.CoreThreshold = int32(tau)
	pTail, m1Tail, m2Tail := tailMoments(dist, tau)
	_, _, m2 := tailMoments(dist, 1)
	kp.CoreVertices = int64(math.Round(pTail * float64(active)))
	kp.RowBytes = kp.CoreVertices * rowBytes
	if kp.CoreVertices == 0 || m2 <= 0 || pTail <= 0 {
		return kp
	}
	kp.CoreShare = m2Tail / m2
	// A core pair costs ≤ words·WordNs on the bit path (full-range AND;
	// the runtime clamp only makes it cheaper) vs mean-core-degree
	// probes on the adaptive list path. The hybrid's per-pair guard
	// takes the min, so its predicted saving is the core share scaled
	// by the bit advantage.
	dCore := m1Tail / pTail
	bitPair := float64(words) * co.WordNs
	listPair := dCore * co.ProbeNs
	if listPair > 0 {
		kp.Gain = kp.CoreShare * math.Max(0, 1-bitPair/listPair)
	}
	if kp.Gain >= kernelGainMargin {
		kp.Kernel = listing.KernelHybrid
	}
	return kp
}
