package ingest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/obsv"
	"trilist/internal/testkit"
)

// serialOpts forces a single chunk spanning the whole input on one
// goroutine — a literal serial scan, the reference every parallel
// configuration must match bitwise.
func serialOpts(data []byte) Options {
	return Options{Workers: 1, ChunkBytes: len(data) + 1}
}

func mustParse(t *testing.T, data string, f Format) *graph.Graph {
	t.Helper()
	g, _, err := Parse([]byte(data), f, serialOpts([]byte(data)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g
}

func TestParseSNAPBasic(t *testing.T) {
	g := mustParse(t, "# a comment\n0 1\n1 2\n2 0\n", FormatSNAP)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.NumNodes(), g.NumEdges())
	}

	// Duplicates (both orientations), self-loops, extra fields, blank
	// lines, CRLF, missing trailing newline.
	g = mustParse(t, "0 1 0.5 12345\r\n1 0\r\n\r\n1 1\r\n1 2", FormatSNAP)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3/2", g.NumNodes(), g.NumEdges())
	}

	// A lone self-loop still counts its node.
	g = mustParse(t, "9 9\n", FormatSNAP)
	if g.NumNodes() != 10 || g.NumEdges() != 0 {
		t.Fatalf("n=%d m=%d, want 10/0", g.NumNodes(), g.NumEdges())
	}

	// Both header conventions declare trailing isolated nodes; the last
	// declaration wins.
	for _, header := range []string{"# nodes 7 edges 1", "# Nodes: 7 Edges: 1", "#Nodes: 7"} {
		g = mustParse(t, header+"\n0 1\n", FormatSNAP)
		if g.NumNodes() != 7 || g.NumEdges() != 1 {
			t.Fatalf("%q: n=%d m=%d, want 7/1", header, g.NumNodes(), g.NumEdges())
		}
	}
	g = mustParse(t, "# nodes 7\n0 1\n# nodes 9\n", FormatSNAP)
	if g.NumNodes() != 9 {
		t.Fatalf("last declaration: n=%d, want 9", g.NumNodes())
	}

	// WriteEdgeList output round-trips, including isolated node 3.
	gsrc, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := graph.WriteEdgeList(&sb, gsrc); err != nil {
		t.Fatal(err)
	}
	g = mustParse(t, sb.String(), FormatSNAP)
	if !testkit.GraphsEqual(g, gsrc) {
		t.Fatal("WriteEdgeList output did not round-trip through ParseSNAP")
	}
}

func TestParseMTXBasic(t *testing.T) {
	// Symmetric pattern with a diagonal entry (stripped) and CRLF.
	g := mustParse(t, "%%MatrixMarket matrix coordinate pattern symmetric\r\n% comment\r\n3 3 4\r\n2 1\r\n3 1\r\n3 2\r\n2 2\r\n", FormatMTX)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 3/3", g.NumNodes(), g.NumEdges())
	}

	// General with values and both orientations of one edge collapsing;
	// banner case-insensitive; no trailing newline.
	g = mustParse(t, "%%matrixmarket MATRIX Coordinate REAL General\n2 2 2\n1 2 3.25\n2 1 3.25", FormatMTX)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
		f        Format
		want     string // substring of the error
	}{
		{"snap bad id", "0 1\n# ok\nx 2\n", FormatSNAP, `snap: line 3: bad node ID "x"`},
		{"snap lone id", "0 1\n7\n", FormatSNAP, `snap: line 2: expected "u v"`},
		{"snap negative", "0 -1\n", FormatSNAP, "line 1: negative node ID"},
		{"snap huge id", "0 2147483648\n", FormatSNAP, "exceeds int32"},
		{"snap header too small", "# nodes 2\n0 5\n", FormatSNAP, "header declares 2 nodes but an edge references node 5"},
		{"mtx no banner", "1 2\n", FormatMTX, "missing %%MatrixMarket banner"},
		{"mtx bad object", "%%MatrixMarket vector coordinate pattern general\n", FormatMTX, `object "vector" not supported`},
		{"mtx dense", "%%MatrixMarket matrix array real general\n", FormatMTX, `format "array" not supported`},
		{"mtx bad field", "%%MatrixMarket matrix coordinate quaternion general\n", FormatMTX, `field "quaternion" not supported`},
		{"mtx bad symmetry", "%%MatrixMarket matrix coordinate pattern diagonal\n", FormatMTX, `symmetry "diagonal" not supported`},
		{"mtx no size", "%%MatrixMarket matrix coordinate pattern general\n% only comments\n", FormatMTX, "line 3: missing size line"},
		{"mtx not square", "%%MatrixMarket matrix coordinate pattern general\n3 4 2\n", FormatMTX, "3x4 matrix is not square"},
		{"mtx bad entry", "%%MatrixMarket matrix coordinate pattern general\n% c\n3 3 2\n1 2\n1 x\n", FormatMTX, `mtx: line 5: bad column index "x"`},
		{"mtx out of range", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n", FormatMTX, "entry (1, 3) outside the declared 2x2 matrix"},
		{"mtx zero based", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n", FormatMTX, "entry (0, 1) outside"},
		{"mtx nnz mismatch", "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n", FormatMTX, "1 entries, header declares 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Parse([]byte(tc.in), tc.f, serialOpts([]byte(tc.in)))
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParseFormatAndDetect(t *testing.T) {
	for in, want := range map[string]Format{
		"": FormatAuto, "auto": FormatAuto, "mtx": FormatMTX, "MTX": FormatMTX,
		"snap": FormatSNAP, "edgelist": FormatSNAP, "csr": FormatCSR,
	} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// The retired TRICSR format has no Format value and no spelling.
	for _, in := range []string{"xml", "binary", "bin", "tricsr"} {
		if _, err := ParseFormat(in); err == nil {
			t.Errorf("ParseFormat accepted %q", in)
		}
	}
	for in, want := range map[string]Format{
		"%%MatrixMarket matrix":  FormatMTX,
		"%%MATRIXMARKET matrix":  FormatMTX,
		"TRCSRF\x01\x00":         FormatCSR,
		"0 1\n":                  FormatSNAP,
		"# comment\n0 1\n":       FormatSNAP,
		"":                       FormatSNAP,
		"%% not a banner at all": FormatSNAP,
	} {
		if got := Detect([]byte(in)); got != want {
			t.Errorf("Detect(%q) = %v, want %v", in, got, want)
		}
	}
}

// TestChunkInvariance is the chunk-boundary property test: every input
// — valid or erroring, CRLF or bare LF, trailing newline or not — must
// produce the identical graph (or the identical error) at every chunk
// size and worker count, including 1-byte chunks that put a boundary
// inside every record. One representative record straddles every
// boundary by construction.
func TestChunkInvariance(t *testing.T) {
	inputs := map[string]struct {
		data   string
		format Format
	}{
		"snap small":       {"0 1\n1 2\n2 0\n3 1\n", FormatSNAP},
		"snap crlf":        {"# Nodes: 9 Edges: 3\r\n0 1\r\n7 8\r\n1 2\r\n", FormatSNAP},
		"snap no trailing": {"0 1\n1 2\n2 0", FormatSNAP},
		"snap headers":     {"# nodes 5\n0 1\n# nodes 11\n2 3\n", FormatSNAP},
		"snap self-loops":  {"0 0\n1 1\n0 1\n5 5\n", FormatSNAP},
		"snap wide":        {"100 200 1.25 t\n200 300\n300 100\n", FormatSNAP},
		"snap error":       {"0 1\n1 2\nbad line here\n2 3\n", FormatSNAP},
		"snap late error":  {"0 1\n# c\n\n1 2\n2 -9\n", FormatSNAP},
		"mtx symmetric":    {"%%MatrixMarket matrix coordinate pattern symmetric\n% c\n4 4 4\n2 1\n3 1\n4 3\n3 2\n", FormatMTX},
		"mtx crlf":         {"%%MatrixMarket matrix coordinate real general\r\n3 3 3\r\n1 2 1.0\r\n2 3 1.0\r\n3 1 1.0\r\n", FormatMTX},
		"mtx no trailing":  {"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2", FormatMTX},
		"mtx error":        {"%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 2\n1 oops\n2 3\n", FormatMTX},
	}
	chunkSizes := func(n int) []int { return []int{1, 7, 4096, n, n + 1} }
	for name, tc := range inputs {
		t.Run(name, func(t *testing.T) {
			data := []byte(tc.data)
			refG, _, refErr := Parse(data, tc.format, serialOpts(data))
			for _, chunk := range chunkSizes(len(data)) {
				for _, workers := range []int{1, 2, 8} {
					g, _, err := Parse(data, tc.format, Options{Workers: workers, ChunkBytes: chunk})
					if (err == nil) != (refErr == nil) {
						t.Fatalf("chunk=%d workers=%d: err %v, serial err %v", chunk, workers, err, refErr)
					}
					if err != nil {
						if err.Error() != refErr.Error() {
							t.Fatalf("chunk=%d workers=%d: err %q, serial err %q", chunk, workers, err, refErr)
						}
						continue
					}
					if !testkit.GraphsEqual(g, refG) {
						t.Fatalf("chunk=%d workers=%d: graph differs from serial parse", chunk, workers)
					}
				}
			}
		})
	}
}

// The golden real-graph tests: two published networks with known
// triangle counts, parsed from testdata and cross-validated against
// the O(n^3) brute-force lister.
func TestGoldenGraphs(t *testing.T) {
	cases := []struct {
		file      string
		format    Format
		n         int
		m         int64
		triangles int64
	}{
		{"karate.mtx", FormatMTX, 34, 78, 45},
		{"florentine.txt", FormatSNAP, 15, 20, 3},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			ld, err := LoadFile(filepath.Join("testdata", tc.file), FormatAuto, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ld.Close()
			if ld.Format != tc.format {
				t.Fatalf("sniffed %v, want %v", ld.Format, tc.format)
			}
			g := ld.Graph
			if g.NumNodes() != tc.n || g.NumEdges() != tc.m {
				t.Fatalf("n=%d m=%d, want %d/%d", g.NumNodes(), g.NumEdges(), tc.n, tc.m)
			}
			if got := testkit.BruteForce(g, nil).Triangles; got != tc.triangles {
				t.Fatalf("brute force found %d triangles, want %d", got, tc.triangles)
			}

			// The graph must survive a TRCSRF round trip byte-identically,
			// through both the streaming reader and the mmap loader.
			path := filepath.Join(t.TempDir(), "golden.csrf")
			if err := csrfile.WriteFile(path, g, [csrfile.DigestSize]byte{}); err != nil {
				t.Fatal(err)
			}
			ld2, err := LoadFile(path, FormatAuto, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ld2.Close()
			if ld2.Format != FormatCSR {
				t.Fatalf("sniffed %v, want csr", ld2.Format)
			}
			if !testkit.GraphsEqual(ld2.Graph, g) {
				t.Fatal("TRCSRF round trip changed the graph")
			}
			if got := testkit.BruteForce(ld2.Graph, nil).Triangles; got != tc.triangles {
				t.Fatalf("mmap-loaded graph has %d triangles, want %d", got, tc.triangles)
			}
		})
	}
}

// Golden graphs again, through the parallel path at adversarial chunk
// sizes — the real-file version of TestChunkInvariance.
func TestGoldenChunkInvariance(t *testing.T) {
	for _, file := range []string{"karate.mtx", "florentine.txt"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := Parse(data, FormatAuto, serialOpts(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 64, 4096} {
			for _, workers := range []int{2, 8} {
				g, _, err := Parse(data, FormatAuto, Options{Workers: workers, ChunkBytes: chunk})
				if err != nil {
					t.Fatalf("%s chunk=%d workers=%d: %v", file, chunk, workers, err)
				}
				if !testkit.GraphsEqual(g, ref) {
					t.Fatalf("%s chunk=%d workers=%d: differs from serial", file, chunk, workers)
				}
			}
		}
	}
}

func TestParseRecordsStages(t *testing.T) {
	rec := obsv.NewRecorder()
	data := []byte("0 1\n1 2\n")
	if _, _, err := Parse(data, FormatAuto, Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	text := rec.Format()
	for _, stage := range []string{string(obsv.StageParse), string(obsv.StageBuild)} {
		if !strings.Contains(text, stage) {
			t.Errorf("recorder missing stage %s:\n%s", stage, text)
		}
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("/does/not/exist", FormatAuto, Options{}); err == nil {
		t.Error("missing file accepted")
	}
	// A truncated TRCSRF via LoadFile surfaces csrfile's diagnostics.
	path := filepath.Join(t.TempDir(), "trunc.csrf")
	if err := os.WriteFile(path, []byte("TRCSRF\x01\x00 short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, FormatAuto, Options{}); err == nil {
		t.Error("truncated csr file accepted")
	}
}

// tricsrImage is the head of a file in the retired TRICSR stream
// format: its magic (with version byte), then n = 4 and m = 1.
var tricsrImage = []byte("TRICSR\x00\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")

// wantRetired checks that err is the retired-format error, which names
// TRICSR and the command that regenerates the graph in TRCSRF.
func wantRetired(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "retired TRICSR") ||
		!strings.Contains(err.Error(), "gengraph -format csr") {
		t.Errorf("%s: err %v, want the retired TRICSR format error", what, err)
	}
}

// TestRetiredTRICSR: TRICSR input is refused with the retired-format
// error, never decoded and never mis-parsed as a SNAP edge list,
// whatever the pinned format and whichever entry point reads it.
func TestRetiredTRICSR(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.bin")
	if err := os.WriteFile(path, tricsrImage, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{FormatAuto, FormatMTX, FormatSNAP, FormatCSR} {
		g, _, err := Parse(tricsrImage, f, Options{})
		if g != nil {
			t.Errorf("Parse(%v) decoded a graph", f)
		}
		wantRetired(t, "Parse("+f.String()+")", err)
		ld, err := LoadFile(path, f, Options{})
		if ld != nil {
			t.Errorf("LoadFile(%v) decoded a graph", f)
		}
		wantRetired(t, "LoadFile("+f.String()+")", err)
	}
	withStdin(t, tricsrImage, func() {
		_, err := LoadFile("", FormatAuto, Options{})
		wantRetired(t, "LoadFile(stdin)", err)
	})
}

// withStdin runs fn with os.Stdin reading data.
func withStdin(t *testing.T, data []byte, fn func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = saved }()
	fn()
}

// TestLoadFileStdin: an empty path reads standard input and parses it
// like a file of the same bytes.
func TestLoadFileStdin(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "karate.mtx"))
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, string(data), FormatMTX)
	withStdin(t, data, func() {
		ld, err := LoadFile("", FormatAuto, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer ld.Close()
		if ld.Format != FormatMTX || !testkit.GraphsEqual(ld.Graph, want) {
			t.Fatalf("stdin loaded as %v, equal %v", ld.Format, testkit.GraphsEqual(ld.Graph, want))
		}
	})
}
