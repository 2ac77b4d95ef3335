package gen

import (
	"math"
	"slices"
	"sort"
	"testing"

	"trilist/internal/stats"
)

func TestBarabasiAlbertBasics(t *testing.T) {
	g, err := BarabasiAlbert(2000, 3, stats.NewRNGFromSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// m = C(4,2) seed + 3 per added node.
	want := int64(6 + 3*(2000-4))
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	// Minimum degree is k (every non-seed node attaches k edges).
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(int32(v)) < 3 {
			t.Fatalf("node %d degree %d < k", v, g.Degree(int32(v)))
		}
	}
}

func TestBarabasiAlbertHeavyTail(t *testing.T) {
	// Preferential attachment produces hubs far above the mean degree —
	// the max degree should exceed the mean by an order of magnitude at
	// this size, unlike an Erdős–Rényi graph with the same m.
	rng := stats.NewRNGFromSeed(5)
	g, err := BarabasiAlbert(20000, 3, rng.Child())
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(20000, g.NumEdges(), rng.Child())
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(g.MaxDegree()) / g.MeanDegree(); ratio < 10 {
		t.Errorf("BA max/mean = %v, expected heavy tail", ratio)
	}
	if !(g.MaxDegree() > 3*er.MaxDegree()) {
		t.Errorf("BA max %d not ≫ ER max %d", g.MaxDegree(), er.MaxDegree())
	}
	// Degree CCDF roughly power-law: P(D > d) at two decades apart.
	degrees := make([]int64, g.NumNodes())
	for v := range degrees {
		degrees[v] = int64(g.Degree(int32(v)))
	}
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] < degrees[j] })
	ccdf := func(d int64) float64 {
		i := sort.Search(len(degrees), func(i int) bool { return degrees[i] > d })
		return float64(len(degrees)-i) / float64(len(degrees))
	}
	// Exponent estimate between d=6 and d=60 should be near 2 (CCDF
	// exponent of BA); accept a broad band.
	exp := math.Log(ccdf(6)/ccdf(60)) / math.Log(10)
	if exp < 1.2 || exp > 3.2 {
		t.Errorf("BA CCDF decade exponent %v outside [1.2, 3.2]", exp)
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	rng := stats.NewRNGFromSeed(1)
	if _, err := BarabasiAlbert(5, 0, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BarabasiAlbert(3, 3, rng); err == nil {
		t.Error("n < k+1 accepted")
	}
	// Minimal case: exactly the seed clique.
	g, err := BarabasiAlbert(4, 3, rng)
	if err != nil || g.NumEdges() != 6 {
		t.Errorf("seed-only graph: %v, %v", g, err)
	}
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: pure ring lattice, every node degree exactly 2k.
	g, err := WattsStrogatz(100, 3, 0, stats.NewRNGFromSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 100; v++ {
		if g.Degree(int32(v)) != 6 {
			t.Fatalf("lattice node %d degree %d, want 6", v, g.Degree(int32(v)))
		}
	}
	if g.NumEdges() != 300 {
		t.Fatalf("m = %d, want 300", g.NumEdges())
	}
}

func TestWattsStrogatzRewiringLowersClustering(t *testing.T) {
	// Clustering decays as beta rises; edge count is preserved.
	rng := stats.NewRNGFromSeed(8)
	cluster := func(beta float64) float64 {
		g, err := WattsStrogatz(3000, 4, beta, rng.Child())
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 3000*4 {
			t.Fatalf("beta=%v: m=%d, rewiring changed edge count", beta, g.NumEdges())
		}
		// Global clustering via wedge counting with the classic
		// iterator: triangles / wedges.
		var tri int64
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			adj := g.Neighbors(v)
			for i := 0; i < len(adj); i++ {
				for j := i + 1; j < len(adj); j++ {
					if _, ok := slices.BinarySearch(g.Neighbors(adj[i]), adj[j]); ok {
						tri++
					}
				}
			}
		}
		var wedges int64
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			d := int64(g.Degree(v))
			wedges += d * (d - 1) / 2
		}
		return float64(tri) / float64(wedges)
	}
	c0, cHalf, c1 := cluster(0), cluster(0.5), cluster(1)
	if !(c0 > cHalf && cHalf > c1) {
		t.Fatalf("clustering not decreasing: %v, %v, %v", c0, cHalf, c1)
	}
	if c0 < 0.4 {
		t.Errorf("lattice clustering %v suspiciously low (theory: 0.5 for k=4... 3(k-1)/(2(2k-1)))", c0)
	}
	if c1 > 0.05 {
		t.Errorf("fully rewired clustering %v too high", c1)
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	rng := stats.NewRNGFromSeed(1)
	if _, err := WattsStrogatz(10, 0, 0.5, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := WattsStrogatz(4, 2, 0.5, rng); err == nil {
		t.Error("n < 2k+1 accepted")
	}
	if _, err := WattsStrogatz(10, 2, -0.1, rng); err == nil {
		t.Error("beta < 0 accepted")
	}
	if _, err := WattsStrogatz(10, 2, 1.1, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestModelsDeterministic(t *testing.T) {
	a, err := BarabasiAlbert(500, 2, stats.NewRNGFromSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BarabasiAlbert(500, 2, stats.NewRNGFromSeed(9))
	ao, an := a.CSR()
	bo, bn := b.CSR()
	if !slices.Equal(ao, bo) || !slices.Equal(an, bn) {
		t.Fatal("BA not deterministic by seed")
	}
	w1, err := WattsStrogatz(200, 2, 0.3, stats.NewRNGFromSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := WattsStrogatz(200, 2, 0.3, stats.NewRNGFromSeed(9))
	if w1.NumEdges() != w2.NumEdges() {
		t.Fatal("WS not deterministic by seed")
	}
}
