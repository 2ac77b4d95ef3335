package ingest

import (
	"bytes"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
)

// The differential fuzz contract: for ANY input bytes, the chunked
// parallel parse must behave exactly like the serial scan — same graph
// or same error text — and must never panic. The targets run the same
// input through adversarial chunk sizes (3 bytes puts a boundary
// inside nearly every record) and worker counts, diffing each against
// the single-chunk reference. Corpus seeds live in
// testdata/fuzz/FuzzParse{SNAP,MTX}; CI runs each target briefly on
// every push, and any crasher the longer local runs find lands there
// as a regression test automatically.

// longDigitRun reports a run of n+ consecutive ASCII digits. Node
// counts forged into headers allocate the O(n) CSR offsets array, so
// the harness skips inputs that could claim more than ~10^6 nodes —
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

// fuzzDifferential diffs chunked configurations against the serial
// reference parse.
func fuzzDifferential(t *testing.T, data []byte, format Format) {
	if longDigitRun(data, 7) {
		t.Skip("declared sizes above 10^6 nodes: allocation-bound, not parse-bound")
	}
	ref, _, refErr := Parse(data, format, serialOpts(data))
	if refErr == nil {
		if err := ref.Validate(); err != nil {
			t.Fatalf("serial parse returned invalid graph: %v", err)
		}
	}
	for _, cfg := range []Options{
		{Workers: 2, ChunkBytes: 3},
		{Workers: 8, ChunkBytes: 16},
		{Workers: 3, ChunkBytes: 1},
	} {
		g, _, err := Parse(data, format, cfg)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%+v: err %v, serial err %v", cfg, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("%+v: err %q, serial err %q", cfg, err, refErr)
			}
			continue
		}
		if !g.Equal(ref) {
			t.Fatalf("%+v: graph differs from serial parse of %q", cfg, data)
		}
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
