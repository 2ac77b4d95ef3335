package planner

import (
	"math"
	mbits "math/bits"
	"sync"
	"time"
)

// KernelCoeffs are wall-clock costs of elementary list-intersection
// operations on the running host, in nanoseconds: the paper's Table 3
// "elementary operation speed" measurement, automated. No plan uses
// them. They stay, unchanged, only because the job benchmark prints
// them in its run-info line; they go when that benchmark stops
// importing this package.
type KernelCoeffs struct {
	// MergeNs is the cost of one two-pointer merge comparison/advance.
	MergeNs float64 `json:"merge_ns"`
	// GallopNs is the cost of one exponential-search probe step.
	GallopNs float64 `json:"gallop_ns"`
	// ProbeNs is the cost of one stamp-arena membership probe.
	ProbeNs float64 `json:"probe_ns"`
	// WordNs is the cost of one 64-bit AND + popcount word.
	WordNs float64 `json:"word_ns"`
}

var (
	coeffsOnce sync.Once
	coeffsVal  KernelCoeffs
)

// CalibrateKernels measures KernelCoeffs with a microbenchmark the
// first time it is called and returns the cached value afterwards
// (~1 ms once per process). Values are machine-dependent by design.
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
