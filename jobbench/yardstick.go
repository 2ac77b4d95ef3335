package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"
)

// The shared virtual machines this benchmark was built on change speed
// under it: the same op's latency moved by up to 2× between minutes,
// with no steal, and any wall time moved with it. A run therefore also
// times a yardstick, a fixed piece of work that resembles a cold job —
// parse a SNAP edge list, orient it by degree, build a hash set of its
// edges and count triangles by merging sorted lists and by probing the
// set — after every op, and reports its timings at a nominal host speed:
//
//	reported = measured × yardstickNominalMS ÷ median yardstick time.
//
// The yardstick is written here, with its own generator, and uses no
// trilist code, so no change to the program moves it.

// yardstickNominalMS is the yardstick time the reported figures are
// scaled to: roughly its median on a 2-core Xeon guest at the speed that
// guest ran most of the time, so that reported and measured figures
// there agree.
const yardstickNominalMS = 30.0

// Yardstick graph size, close to the workloads' graphs.
const (
	yardstickNodes = 10000
	yardstickEdges = 80000
)

// yardstick holds the fixed input of the yardstick work and its answer.
type yardstick struct {
	body      []byte // SNAP edge list
	triangles int64
}

// newYardstick generates the yardstick graph: yardstickEdges distinct
// edges whose endpoints are drawn with Chung–Lu weights (n/(i+1))^(2/3),
// a degree tail of index 1.5. The graph never depends on the seed.
func newYardstick() *yardstick {
	cdf := make([]float64, yardstickNodes)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(yardstickNodes)/float64(i+1), 2.0/3)
		cdf[i] = sum
	}
	rng := uint64(0x9e3779b97f4a7c15)
	draw := func() int {
		// xorshift64*
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		u := float64((rng*2685821657736338717)>>11) / (1 << 53)
		i, _ := slices.BinarySearch(cdf, u*sum)
		return min(i, yardstickNodes-1)
	}
	seen := make(map[[2]int]bool, yardstickEdges)
	var buf bytes.Buffer
	for len(seen) < yardstickEdges {
		u, v := draw(), draw()
		if u == v || seen[[2]int{u, v}] || seen[[2]int{v, u}] {
			continue
		}
		seen[[2]int{u, v}] = true
		fmt.Fprintf(&buf, "%d\t%d\n", u, v)
	}
	y := &yardstick{body: buf.Bytes()}
	y.triangles = y.work()
	return y
}

// work parses the edge list, orients every edge from the endpoint of
// lower (degree, id) to the higher, sorts the out-lists, loads every
// edge into an open-addressing hash set, and counts each triangle twice:
// once by merging the out-lists of an arc's endpoints and once by
// probing the set for the edge closing a wedge of out-arcs. Parsing and merging are
// sequential; building and probing the set are random accesses.
func (y *yardstick) work() int64 {
	var src, dst []int32
	var pair [2]int32
	x, digits, k := int32(0), false, 0
	for _, c := range y.body {
		if '0' <= c && c <= '9' {
			x, digits = x*10+int32(c-'0'), true
			continue
		}
		if digits {
			pair[k], k = x, k+1
			x, digits = 0, false
			if k == 2 {
				src, dst, k = append(src, pair[0]), append(dst, pair[1]), 0
			}
		}
	}
	deg := make([]int32, yardstickNodes)
	for i := range src {
		deg[src[i]]++
		deg[dst[i]]++
	}
	below := func(u, v int32) bool { return deg[u] < deg[v] || deg[u] == deg[v] && u < v }
	off := make([]int32, yardstickNodes+1)
	for i := range src {
		if below(src[i], dst[i]) {
			off[src[i]+1]++
		} else {
			off[dst[i]+1]++
		}
	}
	for i := 1; i <= yardstickNodes; i++ {
		off[i] += off[i-1]
	}
	out := make([]int32, len(src))
	fill := slices.Clone(off[:yardstickNodes])
	for i := range src {
		u, v := src[i], dst[i]
		if !below(u, v) {
			u, v = v, u
		}
		out[fill[u]] = v
		fill[u]++
	}
	for u := 0; u < yardstickNodes; u++ {
		slices.Sort(out[off[u]:off[u+1]])
	}
	size := 1
	for size < 2*len(out) {
		size <<= 1
	}
	set := make([]uint64, size)
	slot := func(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> 40 & uint64(size-1)) }
	edge := func(u, v int32) uint64 { return uint64(min(u, v))<<32 | uint64(max(u, v)) + 1 }
	for u := int32(0); u < yardstickNodes; u++ {
		for _, v := range out[off[u]:off[u+1]] {
			key := edge(u, v)
			h := slot(key)
			for set[h] != 0 {
				h = (h + 1) & (size - 1)
			}
			set[h] = key
		}
	}
	var tri int64
	for u := 0; u < yardstickNodes; u++ {
		nu := out[off[u]:off[u+1]]
		for i, v := range nu {
			nv := out[off[v]:off[v+1]]
			for a, b := 0, 0; a < len(nu) && b < len(nv); {
				switch {
				case nu[a] < nv[b]:
					a++
				case nu[a] > nv[b]:
					b++
				default:
					tri++
					a++
					b++
				}
			}
			for _, w := range nu[i+1:] {
				key := edge(v, w)
				for h := slot(key); set[h] != 0; h = (h + 1) & (size - 1) {
					if set[h] == key {
						tri++
						break
					}
				}
			}
		}
	}
	return tri
}

// time runs the yardstick once and returns its wall time in ms. It
// fails if the work gives another answer than it did when generated.
func (y *yardstick) time() (float64, error) {
	t0 := time.Now()
	tri := y.work()
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if tri != y.triangles {
		return 0, fmt.Errorf("yardstick counted %d triangles, want %d", tri, y.triangles)
	}
	return ms, nil
}
