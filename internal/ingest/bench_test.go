package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/stats"
)

// paretoText renders a Pareto(1.5) graph on n nodes as a SNAP edge list
// (graph.WriteEdgeList, the bytes trid's clients upload) and as a
// MatrixMarket pattern file with the same records shifted to 1-based.
func paretoText(tb testing.TB, n int, rule degseq.Truncation) (snap, mtx []byte) {
	tb.Helper()
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.5), n, rule, stats.NewRNGFromSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	var s, m bytes.Buffer
	if err := graph.WriteEdgeList(&s, g); err != nil {
		tb.Fatal(err)
	}
	fmt.Fprintf(&m, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", n, n, g.NumEdges())
	g.Edges(func(e graph.Edge) bool {
		fmt.Fprintf(&m, "%d %d\n", e.U+1, e.V+1)
		return true
	})
	return s.Bytes(), m.Bytes()
}

// BenchmarkParseSNAP measures the whole text ingest — chunked scan
// plus CSR build — on the shape of jobbench's cold-ingest graphs
// (n = 10,000, root truncation), at one and two parse workers.
// BenchmarkParseMTX is the same graph as MatrixMarket.
func BenchmarkParseSNAP(b *testing.B) {
	snap, _ := paretoText(b, 10000, degseq.RootTruncation)
	benchParse(b, snap, FormatSNAP)
}

func BenchmarkParseMTX(b *testing.B) {
	_, mtx := paretoText(b, 10000, degseq.RootTruncation)
	benchParse(b, mtx, FormatMTX)
}

func benchParse(b *testing.B, data []byte, f Format) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Parse(data, f, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
