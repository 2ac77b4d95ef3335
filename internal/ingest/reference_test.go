package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/graph"
)

// The reference tokenizer: the per-line SNAP and MatrixMarket chunk
// parsers as they were before the inline record scanner (scanPair), a
// closure per line over nextField and parseInt. The differential fuzz
// targets and the reference tests run the production pipeline over
// these (parseSNAP, parseMTX) and require the same chunk results, and
// the same graph or error text, as the real parsers.

// referenceForEachLine iterates the newline-terminated lines of chunk
// (the last line may lack its terminator at EOF), passing each line
// without the '\n'. Returning false stops the iteration.
func referenceForEachLine(chunk []byte, fn func(line []byte) bool) {
	for len(chunk) > 0 {
		var line []byte
		if j := bytes.IndexByte(chunk, '\n'); j >= 0 {
			line, chunk = chunk[:j], chunk[j+1:]
		} else {
			line, chunk = chunk, nil
		}
		if !fn(line) {
			return
		}
	}
}

func referenceSNAPChunk(chunk []byte, res *chunkResult) {
	res.edges = make([]graph.Edge, 0, len(chunk)/8+1)
	referenceForEachLine(chunk, func(line []byte) bool {
		res.lines++
		tok, rest := nextField(line)
		if len(tok) == 0 {
			return true // blank line
		}
		if tok[0] == '#' {
			scanSNAPHeader(line, res)
			return true
		}
		u, ok := parseInt(tok)
		if !ok {
			res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("bad node ID %q", tok)}
			return false
		}
		tok, _ = nextField(rest)
		if len(tok) == 0 {
			res.err = &lineError{line: res.lines - 1, msg: `expected "u v"`}
			return false
		}
		v, ok := parseInt(tok)
		if !ok {
			res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("bad node ID %q", tok)}
			return false
		}
		if u < 0 || v < 0 {
			res.err = &lineError{line: res.lines - 1, msg: "negative node ID"}
			return false
		}
		if u >= maxNodes || v >= maxNodes {
			res.err = &lineError{line: res.lines - 1, msg: fmt.Sprintf("node ID %d exceeds int32", max(u, v))}
			return false
		}
		res.entries++
		if u > res.maxID {
			res.maxID = u
		}
		if v > res.maxID {
			res.maxID = v
		}
		if u == v {
			return true // self-loop: the node counts, the edge is stripped
		}
		res.edges = append(res.edges, graph.Edge{U: int32(u), V: int32(v)})
		return true
	})
}

func referenceMTXChunk(chunk []byte, n int64, res *chunkResult) {
	res.edges = make([]graph.Edge, 0, len(chunk)/8+1)
	referenceForEachLine(chunk, func(line []byte) bool {
		res.lines++
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
	})
}

// TestParseMatchesReference runs generated Pareto graphs, as SNAP and
// MatrixMarket text, and the same text with every record reshaped
// (CRLF endings, tab separators, a trailing field) through the real
// parser and the reference tokenizer, serially and at small chunks.
func TestParseMatchesReference(t *testing.T) {
	for _, rule := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		snap, mtx := paretoText(t, 3000, rule)
		for _, tc := range []struct {
			data []byte
			f    Format
		}{
			{snap, FormatSNAP},
			{mtx, FormatMTX},
			{bytes.ReplaceAll(snap, []byte("\n"), []byte("\r\n")), FormatSNAP},
			{bytes.ReplaceAll(mtx, []byte(" "), []byte("\t")), FormatMTX},
			{bytes.ReplaceAll(snap, []byte("\n"), []byte(" 1.5\n")), FormatSNAP},
		} {
			for _, o := range []Options{serialOpts(tc.data), {Workers: 2, ChunkBytes: 4096}} {
				want, wantErr := referenceParse(tc.data, tc.f, o)
				if wantErr != nil {
					t.Fatalf("%v %v: reference parse: %v", rule, tc.f, wantErr)
				}
				g, _, err := Parse(tc.data, tc.f, o)
				sameResult(t, fmt.Sprintf("%v %v chunk=%d", rule, tc.f, o.ChunkBytes), g, err, want, wantErr)
			}
		}
	}
}
