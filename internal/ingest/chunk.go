package ingest

import (
	"bytes"
	"fmt"

	"trilist/internal/graph"
	"trilist/internal/par"
)

// The chunked-parse machinery shared by the MatrixMarket and SNAP
// readers. The byte range holding the records is split into nominal
// fixed-size chunks whose boundaries are then advanced to the next line
// start, so every line belongs to exactly one chunk; chunks are parsed
// concurrently into per-chunk slots and merged in chunk order. Because
// the chunk boundaries depend only on (data, chunkBytes) — never on the
// worker count or scheduling — and the merge is a plain concatenation,
// the resulting edge list is byte-for-byte the one a serial scan
// produces, at every worker count and every chunk size. Errors follow
// the same discipline: each chunk records its first error with a
// chunk-local line index, the merge picks the erroring chunk earliest
// in file order, and global line numbers are reconstructed from the
// preceding chunks' line counts — so the reported error is identical to
// the serial parse's, too.

// chunkResult is one chunk's parse output.
type chunkResult struct {
	edges []graph.Edge
	// lines is the number of lines beginning in the chunk (counted up to
	// and including an erroring line).
	lines int
	// entries counts parsed records (MatrixMarket reconciles the total
	// against the header's nnz).
	entries int64
	// maxID is the largest node ID referenced, -1 if none.
	maxID int64
	// declaredN is the node count declared by the last header comment in
	// the chunk ("# nodes N" / "# Nodes: N"), -1 if none.
	declaredN int64
	// err is the chunk's first parse error, nil if none.
	err *lineError
}

// lineError is a parse error positioned by chunk-local line index
// (0-based); firstError turns it into a file-global 1-based line.
type lineError struct {
	line int
	msg  string
}

// lineStartAtOrAfter returns the smallest line-start index in [b, hi]:
// lo itself, any index directly after a '\n', or hi when the rest of
// the range is one unterminated line.
func lineStartAtOrAfter(data []byte, lo, hi, b int) int {
	if b <= lo {
		return lo
	}
	// A line starts right after a '\n'; checking from b-1 catches the
	// case where b itself is a line start.
	j := bytes.IndexByte(data[b-1:hi], '\n')
	if j < 0 {
		return hi
	}
	return b + j
}

// chunkStarts splits data[lo:hi) into line-aligned chunks of nominally
// chunkBytes bytes and returns the k+1 boundary offsets. Boundaries
// depend only on (data, lo, hi, chunkBytes).
func chunkStarts(data []byte, lo, hi, chunkBytes int) []int {
	starts := []int{lo}
	if chunkBytes < 1 {
		chunkBytes = 1
	}
	for b := lo + chunkBytes; b < hi; b += chunkBytes {
		s := lineStartAtOrAfter(data, lo, hi, b)
		if s >= hi {
			break
		}
		if s > starts[len(starts)-1] {
			starts = append(starts, s)
		}
	}
	return append(starts, hi)
}

// defaultChunkBytes picks the nominal chunk size when the caller left
// it unset: enough chunks to balance the worker pool (4 per worker)
// within [64 KiB, 8 MiB] so tiny inputs stay serial and huge ones do
// not explode the slot array. Any choice yields the identical graph;
// this only tunes speed.
func defaultChunkBytes(size, workers int) int {
	c := size / (4 * par.Workers(workers))
	const lo, hi = 64 << 10, 8 << 20
	if c < lo {
		c = lo
	}
	if c > hi {
		c = hi
	}
	return c
}

// parseChunks runs parse over every line-aligned chunk of data[lo:hi)
// concurrently and returns the per-chunk results in chunk order.
func parseChunks(data []byte, lo, hi int, o Options, parse func(chunk []byte, res *chunkResult)) []chunkResult {
	chunkBytes := o.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes(hi-lo, o.Workers)
	}
	starts := chunkStarts(data, lo, hi, chunkBytes)
	k := len(starts) - 1
	res := make([]chunkResult, k)
	par.Ranges(k, par.Workers(o.Workers), func(clo, chi int) {
		for c := clo; c < chi; c++ {
			r := &res[c]
			r.maxID, r.declaredN = -1, -1
			parse(data[starts[c]:starts[c+1]], r)
		}
	})
	return res
}

// firstError scans results in chunk order and resolves the earliest
// error — the one the serial parse would hit first — into a global
// 1-based line number. baseLines counts lines consumed before the
// chunked region (the MatrixMarket header block).
func firstError(results []chunkResult, baseLines int, format string) error {
	lines := baseLines
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return fmt.Errorf("ingest: %s: line %d: %s", format, lines+r.err.line+1, r.err.msg)
		}
		lines += r.lines
	}
	return nil
}

// mergeEdges concatenates the per-chunk edge slices in chunk order into
// one slice (copied in parallel over disjoint destination ranges).
func mergeEdges(results []chunkResult, workers int) []graph.Edge {
	total := 0
	offs := make([]int, len(results)+1)
	for i := range results {
		total += len(results[i].edges)
		offs[i+1] = total
	}
	edges := make([]graph.Edge, total)
	par.Ranges(len(results), par.Workers(workers), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(edges[offs[c]:offs[c+1]], results[c].edges)
		}
	})
	return edges
}

// cutLine splits off the first line of data, returning it without the
// terminator plus the number of bytes consumed (terminator included).
func cutLine(data []byte) (line []byte, n int) {
	if j := bytes.IndexByte(data, '\n'); j >= 0 {
		return data[:j], j + 1
	}
	return data, len(data)
}

// scanPair is the record scanner's fast path. It decodes the common
// record shape at data[p:] — a run of 1–18 digits, one or more isSpace
// bytes, a second run of 1–18 digits, then the end of data, a '\n' or
// an isSpace byte (after which the rest of the line is ignored, as the
// per-line parsers ignore fields past the second) — and returns both
// values and the offset of the next line. ok is false for every other
// line; the caller then hands the line to its per-line parser, which
// owns comments, signs, leading whitespace, long digit runs and every
// error. Eighteen digits cannot overflow an int64, so the fast path
// needs no per-digit overflow check.
func scanPair(data []byte, p int) (a, b int64, next int, ok bool) {
	if a, p, ok = scanDigits(data, p); !ok || p == len(data) || !isSpace(data[p]) {
		return 0, 0, 0, false
	}
	for p++; p < len(data) && isSpace(data[p]); p++ {
	}
	if b, p, ok = scanDigits(data, p); !ok {
		return 0, 0, 0, false
	}
	switch {
	case p == len(data):
		return a, b, p, true
	case data[p] == '\n':
		return a, b, p + 1, true
	case !isSpace(data[p]):
		return 0, 0, 0, false
	}
	if j := bytes.IndexByte(data[p:], '\n'); j >= 0 {
		return a, b, p + j + 1, true
	}
	return a, b, len(data), true
}

// scanDigits decodes the run of ASCII digits at data[p:], returning
// its value, the offset just past it, and whether the run is 1–18
// digits long (a longer run's value is meaningless).
func scanDigits(data []byte, p int) (v int64, end int, ok bool) {
	start := p
	for ; p < len(data); p++ {
		d := data[p] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	return v, p, p > start && p-start <= 18
}

// isSpace matches ASCII field separators; '\r' is included so CRLF
// line endings parse transparently.
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f'
}

// nextField scans the next whitespace-separated token; tok is empty
// when the line is exhausted.
func nextField(line []byte) (tok, rest []byte) {
	i := 0
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !isSpace(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}

// parseInt parses a signed decimal integer without allocating,
// rejecting empty tokens, non-digits, and int64 overflow.
func parseInt(tok []byte) (int64, bool) {
	if len(tok) == 0 {
		return 0, false
	}
	neg := false
	switch tok[0] {
	case '+':
		tok = tok[1:]
	case '-':
		neg, tok = true, tok[1:]
	}
	if len(tok) == 0 {
		return 0, false
	}
	var v int64
	for _, b := range tok {
		if b < '0' || b > '9' {
			return 0, false
		}
		d := int64(b - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}

// equalFold reports whether tok equals the lower-case ASCII string s,
// ignoring case, without allocating.
func equalFold(tok []byte, s string) bool {
	if len(tok) != len(s) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		b := tok[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != s[i] {
			return false
		}
	}
	return true
}
