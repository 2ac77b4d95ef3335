package stats

import (
	"math"
	"testing"
)

// tripleDurations fabricates block-triple pass wall times: a
// heavy-tailed mix (most passes cheap, same-partition triples much
// bigger) — a skewed sample whose moments stress Merge's arithmetic.
func tripleDurations(rng *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		base := 1e-4 + 1e-3*rng.Float64()
		if rng.IntN(10) == 0 {
			base *= 50 + 200*rng.Float64() // a giant pass
		}
		xs[i] = base
	}
	return xs
}

// TestMergeTripleShardProperty: Merge folds per-shard Samples into one
// (the experiments engine merges per-sequence shards this way). For
// random shardings of one sample, and for any order and grouping of the
// merge fold, the aggregate must agree with the serial sample: N, Min
// and Max bit-exactly (they are order-free by construction), moments
// to 1e-12. This is the associativity/commutativity property any
// shard fold relies on.
func TestMergeTripleShardProperty(t *testing.T) {
	rng := NewRNGFromSeed(0xC00D)
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.IntN(300)
		xs := tripleDurations(rng, n)
		serial := sampleOf(xs)

		// Deal the passes to a random number of shards.
		nshards := 1 + rng.IntN(6)
		shards := make([][]float64, nshards)
		for _, x := range xs {
			nd := rng.IntN(nshards)
			shards[nd] = append(shards[nd], x)
		}
		perShard := make([]Sample, nshards)
		for i, sh := range shards {
			perShard[i] = sampleOf(sh)
		}

		// Commutativity: fold in a random shard order.
		perm := make([]int, nshards)
		for i := range perm {
			perm[i] = i
		}
		for i := nshards - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		var permuted Sample
		for _, i := range perm {
			permuted.Merge(perShard[i])
		}

		// Associativity: random binary grouping — repeatedly merge two
		// random entries of a working set until one remains.
		work := append([]Sample(nil), perShard...)
		for len(work) > 1 {
			i := rng.IntN(len(work))
			j := rng.IntN(len(work))
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			a := work[i]
			a.Merge(work[j])
			work[i] = a
			work = append(work[:j], work[j+1:]...)
		}
		grouped := work[0]

		for name, got := range map[string]Sample{"permuted": permuted, "grouped": grouped} {
			// The count is exact regardless of fold shape.
			if got.n != serial.n {
				t.Fatalf("trial %d %s: n=%d, want %d", trial, name, got.n, serial.n)
			}
			assertClose(t, name, got, serial)
		}

		// The two fold shapes also agree with each other to the same
		// tolerance — no hidden dependence on the fold order.
		assertClose(t, "permuted-vs-grouped", permuted, grouped)
		if math.IsNaN(permuted.Mean()) {
			t.Fatalf("trial %d: NaN mean from %d samples", trial, n)
		}
	}
}
