package graph_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/stats"
)

// WriteEdgeList's contract is that ingest.ParseSNAP, the one text
// reader, reads its output back to the same CSR arrays.

func sameCSR(g, h *graph.Graph) bool {
	gOff, gNbr := g.CSR()
	hOff, hNbr := h.CSR()
	return slices.Equal(gOff, hOff) && slices.Equal(gNbr, hNbr)
}

func writeEdgeList(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func parseSNAP(t *testing.T, data string) *graph.Graph {
	t.Helper()
	g, err := ingest.ParseSNAP([]byte(data), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	g2 := parseSNAP(t, string(writeEdgeList(t, g)))
	if !sameCSR(g2, g) {
		t.Fatalf("round trip changed the graph: n=%d m=%d", g2.NumNodes(), g2.NumEdges())
	}
}

func TestEdgeListFormats(t *testing.T) {
	in := `# a comment
1 2

2 0
# another
0 3
3 1
`
	g := parseSNAP(t, in)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
}

func TestEdgeListCollapsesBothOrientations(t *testing.T) {
	if m := parseSNAP(t, "0 1\n1 0\n0 1\n").NumEdges(); m != 1 {
		t.Fatalf("m = %d, want 1", m)
	}
}

// TestEdgeListErrors: every malformed record is an error that names
// its line.
func TestEdgeListErrors(t *testing.T) {
	for in, want := range map[string]string{
		"0\n":                "line 1", // missing endpoint
		"0 1\na b\n":         "line 2", // non-numeric
		"0 1\n# c\n0 x\n":    "line 3", // non-numeric second field
		"0 1\n\n\n-1 2\n":    "line 4", // negative
		"# nodes 2\n0 5\n":   "header declares 2 nodes",
		"0 1\n1 2\n2 3\n4\n": "line 4",
	} {
		_, err := ingest.ParseSNAP([]byte(in), ingest.Options{})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("input %q: err %v, want it to name %q", in, err, want)
		}
	}
}

func TestEdgeListHeaderPreservesIsolatedNodes(t *testing.T) {
	g, err := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	g2 := parseSNAP(t, string(writeEdgeList(t, g)))
	if g2.NumNodes() != 10 || !sameCSR(g2, g) {
		t.Fatalf("n = %d, want 10 (from header)", g2.NumNodes())
	}
}

func TestLargeRoundTrip(t *testing.T) {
	r := stats.NewRNGFromSeed(12)
	var edges []graph.Edge
	for i := 0; i < 3000; i++ {
		u := int32(r.IntN(500))
		v := int32(r.IntN(500))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.FromEdges(500, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ingest.ParseSNAP(writeEdgeList(t, g), ingest.Options{Workers: 4, ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g2, g) {
		t.Fatalf("roundtrip mismatch: %d/%d vs %d/%d",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
}
