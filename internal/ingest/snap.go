package ingest

import (
	"fmt"

	"trilist/internal/graph"
	"trilist/internal/obsv"
)

// The SNAP / edge-list reader: one whitespace-separated "u v" record
// per line, '#'-prefixed comment lines, 0-based node IDs. This is the
// de-facto interchange format of the SNAP repository (facebook_combined,
// ca-AstroPh, ...) and a superset of this repo's own WriteEdgeList
// output. Two header conventions declare the node count so trailing
// isolated nodes survive a round trip:
//
//	# nodes 4039 edges 88234        (this repo's WriteEdgeList)
//	# Nodes: 4039 Edges: 88234      (SNAP's download headers)
//
// Self-loops are silently stripped rather than rejected — real-world
// snapshots contain them — and duplicate records (including both
// orientations of one edge) collapse. Extra fields after "u v"
// (weights, timestamps) are ignored.

// ParseSNAP parses a SNAP-style edge list into a simple undirected
// graph. The parse is chunk-parallel (see Options) and its result —
// graph or error — is identical to a serial scan's.
func ParseSNAP(data []byte, o Options) (*graph.Graph, error) {
	return parseSNAP(data, o, parseSNAPChunk)
}

// parseSNAP is ParseSNAP over a given chunk parser, so tests can run
// the same pipeline over a reference tokenizer.
func parseSNAP(data []byte, o Options, parseChunk func([]byte, *chunkResult)) (*graph.Graph, error) {
	spParse := o.Recorder.Start(obsv.StageParse)
	results := parseChunks(data, 0, len(data), o, parseChunk)
	err := firstError(results, 0, "snap")
	spParse.End()
	if err != nil {
		return nil, err
	}

	maxID, declaredN := int64(-1), int64(-1)
	for i := range results {
		if results[i].maxID > maxID {
			maxID = results[i].maxID
		}
		// Last declaration in file order wins, matching a serial scan.
		if results[i].declaredN >= 0 {
			declaredN = results[i].declaredN
		}
	}
	n := maxID + 1
	if declaredN >= 0 {
		if declaredN < n {
			return nil, fmt.Errorf("ingest: snap: header declares %d nodes but an edge references node %d", declaredN, maxID)
		}
		if declaredN > maxNodes {
			return nil, fmt.Errorf("ingest: snap: header declares %d nodes, exceeding int32 node IDs", declaredN)
		}
		n = declaredN
	}

	spBuild := o.Recorder.Start(obsv.StageBuild)
	defer spBuild.End()
	return graph.FromEdgeLists(int(n), chunkEdges(results), true)
}

// maxNodes bounds node counts to what int32 IDs can address.
const maxNodes = 1 << 31

// parseSNAPChunk parses one line-aligned chunk of SNAP records: the
// common "u v" record is decoded inline by scanPair, and every other
// line goes to parseSNAPLine.
func parseSNAPChunk(chunk []byte, res *chunkResult) {
	res.edges = make([]graph.Edge, 0, len(chunk)/8+1)
	for p := 0; p < len(chunk); {
		res.lines++
		u, v, next, ok := scanPair(chunk, p)
		if !ok || u >= maxNodes || v >= maxNodes {
			line, n := cutLine(chunk[p:])
			if !parseSNAPLine(line, res) {
				return
			}
			p += n
			continue
		}
		p = next
		res.entries++
		res.maxID = max(res.maxID, u, v)
		if u != v {
			res.edges = append(res.edges, graph.Edge{U: int32(u), V: int32(v)})
		}
	}
}

// parseSNAPLine parses one SNAP line (without its '\n') that the fast
// path declined, recording its edge, header or error in res. It
// returns false on a parse error.
func parseSNAPLine(line []byte, res *chunkResult) bool {
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
}

// scanSNAPHeader extracts a node-count declaration from a comment
// line: any token equal to "nodes" or "nodes:" (case-insensitive)
// followed by an integer. Malformed declarations are ignored — comment
// content is free-form.
func scanSNAPHeader(line []byte, res *chunkResult) {
	// Skip the leading '#' (possibly fused with the first word, as in
	// "#Nodes: 10").
	tok, rest := nextField(line)
	tok = tok[1:]
	for {
		if equalFold(tok, "nodes") || equalFold(tok, "nodes:") {
			num, r := nextField(rest)
			if n, ok := parseInt(num); ok && n >= 0 {
				res.declaredN = n
				rest = r
			}
		}
		tok, rest = nextField(rest)
		if len(tok) == 0 {
			return
		}
	}
}
