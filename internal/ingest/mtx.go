package ingest

import (
	"fmt"

	"trilist/internal/graph"
	"trilist/internal/obsv"
)

// The MatrixMarket coordinate reader, treating the matrix as an
// adjacency structure: every off-diagonal entry (i, j) becomes the
// undirected edge {i-1, j-1}; diagonal entries (self-loops) are
// stripped; duplicate entries and explicit symmetric pairs collapse.
// This is how the LAGraph/SuiteSparse triangle-count suites consume
// .mtx graphs (karate.mtx and friends), so their published triangle
// counts cross-validate this reader directly.
//
// Supported banners: object "matrix", format "coordinate", field
// "pattern", "real", "integer" or "complex" (values are ignored — only
// the sparsity pattern matters for listing), symmetry "general",
// "symmetric", "skew-symmetric" or "hermitian". The matrix must be
// square. Entry values beyond the two indices are not validated; extra
// or missing value tokens are tolerated, since real-world writers
// disagree about them.

// mtxHeader is the serially parsed prologue: banner line, '%' comment
// block, and the "rows cols nnz" size line.
type mtxHeader struct {
	n         int64 // rows == cols
	nnz       int64 // declared entry count
	entriesAt int   // byte offset of the first entry line
	lines     int   // lines consumed by the prologue
}

// parseMTXHeader parses the prologue. Errors carry 1-based line
// numbers like the chunked entry errors.
func parseMTXHeader(data []byte) (*mtxHeader, error) {
	h := &mtxHeader{}
	off := 0
	// Banner.
	line, n := cutLine(data)
	h.lines++
	off += n
	tok, rest := nextField(line)
	if !equalFold(tok, "%%matrixmarket") {
		return nil, fmt.Errorf("ingest: mtx: line 1: missing %%%%MatrixMarket banner")
	}
	var object, format, field, symmetry []byte
	object, rest = nextField(rest)
	format, rest = nextField(rest)
	field, rest = nextField(rest)
	symmetry, _ = nextField(rest)
	if !equalFold(object, "matrix") {
		return nil, fmt.Errorf("ingest: mtx: line 1: object %q not supported (want matrix)", object)
	}
	if !equalFold(format, "coordinate") {
		return nil, fmt.Errorf("ingest: mtx: line 1: format %q not supported (want coordinate)", format)
	}
	switch {
	case equalFold(field, "pattern"), equalFold(field, "real"),
		equalFold(field, "integer"), equalFold(field, "complex"):
	default:
		return nil, fmt.Errorf("ingest: mtx: line 1: field %q not supported (want pattern, real, integer or complex)", field)
	}
	switch {
	case equalFold(symmetry, "general"), equalFold(symmetry, "symmetric"),
		equalFold(symmetry, "skew-symmetric"), equalFold(symmetry, "hermitian"):
	default:
		return nil, fmt.Errorf("ingest: mtx: line 1: symmetry %q not supported (want general, symmetric, skew-symmetric or hermitian)", symmetry)
	}

	// Comment block, then the size line.
	for {
		if off >= len(data) {
			return nil, fmt.Errorf("ingest: mtx: line %d: missing size line", h.lines+1)
		}
		line, n = cutLine(data[off:])
		h.lines++
		off += n
		tok, rest = nextField(line)
		if len(tok) == 0 || tok[0] == '%' {
			continue // comment or blank line
		}
		rows, ok := parseInt(tok)
		if !ok {
			return nil, fmt.Errorf("ingest: mtx: line %d: bad size line %q", h.lines, line)
		}
		tok, rest = nextField(rest)
		cols, ok := parseInt(tok)
		if !ok {
			return nil, fmt.Errorf("ingest: mtx: line %d: bad size line %q", h.lines, line)
		}
		tok, rest = nextField(rest)
		nnz, ok := parseInt(tok)
		if !ok {
			return nil, fmt.Errorf("ingest: mtx: line %d: bad size line %q", h.lines, line)
		}
		if tok, _ = nextField(rest); len(tok) != 0 {
			return nil, fmt.Errorf("ingest: mtx: line %d: trailing %q after size line", h.lines, tok)
		}
		if rows < 0 || cols < 0 || nnz < 0 {
			return nil, fmt.Errorf("ingest: mtx: line %d: negative size", h.lines)
		}
		if rows != cols {
			return nil, fmt.Errorf("ingest: mtx: line %d: %dx%d matrix is not square — not an adjacency structure", h.lines, rows, cols)
		}
		if rows > maxNodes {
			return nil, fmt.Errorf("ingest: mtx: line %d: %d nodes exceed int32 IDs", h.lines, rows)
		}
		h.n, h.nnz, h.entriesAt = rows, nnz, off
		return h, nil
	}
}

// ParseMTX parses a MatrixMarket coordinate file into a simple
// undirected graph. The header is read serially; the entry region is
// parsed chunk-parallel (see Options) with a result — graph or error —
// identical to a serial scan's.
func ParseMTX(data []byte, o Options) (*graph.Graph, error) {
	return parseMTX(data, o, parseMTXChunk)
}

// parseMTX is ParseMTX over a given chunk parser, so tests can run the
// same pipeline over a reference tokenizer.
func parseMTX(data []byte, o Options, parseChunk func([]byte, int64, *chunkResult)) (*graph.Graph, error) {
	spParse := o.Recorder.Start(obsv.StageParse)
	h, err := parseMTXHeader(data)
	if err != nil {
		spParse.End()
		return nil, err
	}
	n := h.n
	results := parseChunks(data, h.entriesAt, len(data), o, func(chunk []byte, res *chunkResult) {
		parseChunk(chunk, n, res)
	})
	err = firstError(results, h.lines, "mtx")
	spParse.End()
	if err != nil {
		return nil, err
	}
	var entries int64
	for i := range results {
		entries += results[i].entries
	}
	if entries != h.nnz {
		return nil, fmt.Errorf("ingest: mtx: %d entries, header declares %d", entries, h.nnz)
	}

	spBuild := o.Recorder.Start(obsv.StageBuild)
	defer spBuild.End()
	return graph.FromEdgeLists(int(h.n), chunkEdges(results), true)
}

// parseMTXChunk parses one line-aligned chunk of coordinate entries:
// the common "i j" entry is decoded inline by scanPair, and every other
// line goes to parseMTXLine.
func parseMTXChunk(chunk []byte, n int64, res *chunkResult) {
	res.edges = make([]graph.Edge, 0, len(chunk)/8+1)
	for p := 0; p < len(chunk); {
		res.lines++
		i, j, next, ok := scanPair(chunk, p)
		if !ok || i < 1 || i > n || j < 1 || j > n {
			line, k := cutLine(chunk[p:])
			if !parseMTXLine(line, n, res) {
				return
			}
			p += k
			continue
		}
		p = next
		res.entries++
		if i != j {
			res.edges = append(res.edges, graph.Edge{U: int32(i - 1), V: int32(j - 1)})
		}
	}
}

// parseMTXLine parses one entry line (without its '\n') that the fast
// path declined. Indices are 1-based in [1, n]; diagonal entries are
// stripped; value tokens are ignored. It returns false on a parse
// error.
func parseMTXLine(line []byte, n int64, res *chunkResult) bool {
	tok, rest := nextField(line)
	if len(tok) == 0 || tok[0] == '%' {
		return true // blank or stray comment line: tolerated
	}
	i, ok := parseInt(tok)
	if !ok {
		res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("bad row index %q", tok)}
		return false
	}
	tok, _ = nextField(rest)
	j, ok := parseInt(tok)
	if !ok {
		res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("bad column index %q", tok)}
		return false
	}
	if i < 1 || i > n || j < 1 || j > n {
		res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("entry (%d, %d) outside the declared %dx%d matrix", i, j, n, n)}
		return false
	}
	res.entries++
	if i == j {
		return true // diagonal: stripped
	}
	res.edges = append(res.edges, graph.Edge{U: int32(i - 1), V: int32(j - 1)})
	return true
}
