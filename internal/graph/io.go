package graph

import (
	"bufio"
	"fmt"
	"io"
)

// The text format is the de-facto standard whitespace-separated edge list
// used by SNAP and similar graph repositories: one "u v" pair per line,
// '#'-prefixed comment lines ignored, node IDs 0-based. WriteEdgeList
// emits a header comment with n and m so the reader (ingest.ParseSNAP)
// can size the graph even when trailing isolated nodes carry no edges.

// WriteEdgeList writes the graph as a text edge list (one "u v" line per
// undirected edge, U < V).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(e Edge) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
