package ingest

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/testkit"
)

// The differential fuzz contract: for ANY input bytes, the chunked
// parallel parse must behave exactly like the serial scan, and the
// inline record scanner exactly like the reference per-line tokenizer
// (reference_test.go) — same graph or same error text — and neither
// may panic. The targets run the same input through adversarial chunk
// sizes (3 bytes puts a boundary inside nearly every record) and
// worker counts, diffing each against the single-chunk reference.
// Corpus seeds live in testdata/fuzz/FuzzParse{SNAP,MTX}; CI runs each
// target briefly on every push, and any crasher the longer local runs
// find lands there as a regression test automatically.

// longDigitRun reports a run of n+ consecutive ASCII digits. Node
// counts forged into headers allocate the O(n) CSR offsets array, so
// the harness builds no graph from inputs that could claim more than
// ~10^6 nodes (only the tokenizer differential runs on them) —
// resource exhaustion by declared size is bounded by the caller's
// input cap in production, not a parser invariant worth OOMing CI for.
func longDigitRun(data []byte, n int) bool {
	run := 0
	for _, b := range data {
		if '0' <= b && b <= '9' {
			if run++; run >= n {
				return true
			}
		} else {
			run = 0
		}
	}
	return false
}

// referenceParse is Parse over the reference tokenizer.
func referenceParse(data []byte, f Format, o Options) (*graph.Graph, error) {
	if bytes.HasPrefix(data, tricsrMagic) {
		return nil, errRetiredTRICSR
	}
	if f == FormatMTX {
		return parseMTX(data, o, referenceMTXChunk)
	}
	return parseSNAP(data, o, referenceSNAPChunk)
}

// sameResult fails unless (g, err) is (want, wantErr): equal graphs,
// or errors with equal text.
func sameResult(t *testing.T, what string, g *graph.Graph, err error, want *graph.Graph, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: err %v, want err %v", what, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: err %q, want %q", what, err, wantErr)
		}
		return
	}
	if !testkit.GraphsEqual(g, want) {
		t.Fatalf("%s: graph differs", what)
	}
}

// tokenizerDifferential runs the real chunk parser and the reference
// tokenizer over the same chunks and requires identical chunk results:
// edges, line and entry counts, largest ID, header declaration and
// first error. It builds no graph, so it covers the inputs with long
// digit runs that fuzzDifferential cannot build.
func tokenizerDifferential(t *testing.T, data []byte, format Format) {
	lo, fast, ref := 0, parseSNAPChunk, referenceSNAPChunk
	if format == FormatMTX {
		h, err := parseMTXHeader(data)
		if err != nil {
			return // the header parse is shared, not part of the tokenizer
		}
		lo = h.entriesAt
		fast = func(c []byte, r *chunkResult) { parseMTXChunk(c, h.n, r) }
		ref = func(c []byte, r *chunkResult) { referenceMTXChunk(c, h.n, r) }
	}
	for _, o := range []Options{serialOpts(data), {Workers: 1, ChunkBytes: 3}} {
		got := parseChunks(data, lo, len(data), o, fast)
		want := parseChunks(data, lo, len(data), o, ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk=%d: chunk results differ from the reference tokenizer on %q", o.ChunkBytes, data)
		}
	}
}

// fuzzDifferential diffs the real parser against the reference
// tokenizer, and chunked configurations against the serial parse.
func fuzzDifferential(t *testing.T, data []byte, format Format) {
	tokenizerDifferential(t, data, format)
	if longDigitRun(data, 7) {
		t.Skip("declared sizes above 10^6 nodes: allocation-bound, not parse-bound")
	}
	ref, _, refErr := Parse(data, format, serialOpts(data))
	if refErr == nil {
		if err := ref.Validate(); err != nil {
			t.Fatalf("serial parse returned invalid graph: %v", err)
		}
	}
	g, err := referenceParse(data, format, serialOpts(data))
	sameResult(t, "reference tokenizer", ref, refErr, g, err)
	for _, cfg := range []Options{
		{Workers: 2, ChunkBytes: 3},
		{Workers: 8, ChunkBytes: 16},
		{Workers: 3, ChunkBytes: 1},
	} {
		g, _, err := Parse(data, format, cfg)
		sameResult(t, fmt.Sprintf("%+v vs serial parse of %q", cfg, data), g, err, ref, refErr)
	}
}

func FuzzParseSNAP(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("0 1\n1 2\n2 0\n"),
		[]byte("# Nodes: 9 Edges: 2\r\n0 1\r\n7 8"),
		[]byte("# nodes 5\n0 0\n1 1 weight\n"),
		[]byte("bad line\n"),
		[]byte("0 -1\n"),
		[]byte(""),
		[]byte("\n\n#\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDifferential(t, data, FormatSNAP)
	})
}

func FuzzParseMTX(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 3\n2 1\n3 1\n3 2\n"),
		[]byte("%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 2 1.0\r\n2 1 1.0"),
		[]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n"),
		[]byte("%%MatrixMarket matrix coordinate pattern general\n2 2 9\n1 2\n"),
		[]byte("%%MatrixMarket\n"),
		[]byte("not mtx at all\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDifferential(t, data, FormatMTX)
	})
}

// FuzzDetect: sniffing plus parsing under the sniffed format must
// never panic, whatever the bytes (this is the path an unpinned
// POST /v1/graphs body takes), and input in the retired TRICSR format
// always gets the retired-format error. A valid TRCSRF image seeds
// the run so that mutations reach csrfile.ReadBytes's checks past the
// header.
func FuzzDetect(f *testing.F) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 4}}, false)
	if err != nil {
		f.Fatal(err)
	}
	var csr bytes.Buffer
	if err := csrfile.Write(&csr, g); err != nil {
		f.Fatal(err)
	}
	f.Add(csr.Bytes())
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern general\n1 1 0\n"))
	f.Add([]byte("TRCSRF junk"))
	f.Add([]byte("TRICSR\x00\x01junk"))
	f.Add([]byte("0 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if longDigitRun(data, 7) {
			t.Skip()
		}
		format := Detect(data)
		g, got, err := Parse(data, FormatAuto, Options{})
		if got != format {
			t.Fatalf("Parse resolved %v, Detect said %v", got, format)
		}
		if bytes.HasPrefix(data, tricsrMagic) {
			wantRetired(t, "TRICSR input", err)
			return
		}
		if err == nil {
			if vErr := g.Validate(); vErr != nil {
				t.Fatalf("accepted invalid graph: %v", vErr)
			}
		}
	})
}
