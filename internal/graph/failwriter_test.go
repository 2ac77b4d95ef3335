package graph

import (
	"errors"
	"testing"
)

// failWriter errors after accepting limit bytes — failure injection for
// the serialization paths.
type failWriter struct {
	limit int
}

var errDiskFull = errors.New("synthetic: disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	return len(p), nil
}

func TestWriteEdgeListPropagatesWriteErrors(t *testing.T) {
	g, err := FromEdges(100, buildPathEdges(100), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 5, 50, 300} {
		if err := WriteEdgeList(&failWriter{limit: limit}, g); err == nil {
			t.Errorf("limit %d: write error swallowed", limit)
		}
	}
}

func buildPathEdges(n int) []Edge {
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{U: int32(i), V: int32(i + 1)}
	}
	return edges
}
