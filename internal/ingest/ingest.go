// Package ingest is the one reader of graph bytes: a MatrixMarket
// (.mtx) coordinate reader, a SNAP-style whitespace edge list reader,
// and the TRCSRF binary CSR loader (package csrfile), behind one
// format-sniffing entry point (Parse for bytes, LoadFile for a file or
// stdin).
//
// The text parsers are chunk-parallel: the record byte range is split
// into line-aligned chunks fixed by the data alone, chunks parse
// concurrently, and the CSR build reads their edges in chunk order — so
// the graph (and any error, down to its line number) is bitwise
// identical to a serial scan at every worker count and chunk size. That
// invariant is what the differential fuzz targets (FuzzParseMTX,
// FuzzParseSNAP) and the chunk-boundary property tests enforce.
//
// Each chunk is one scan loop whose fast path (scanPair) decodes the
// common two-ID record inline. Every other line — comments, signs,
// leading whitespace, long digit runs, out-of-range IDs, every error —
// goes to the per-line parser, so graph, error text and line number are
// the per-line tokenizer's by construction; the fuzz targets also diff
// the parsers against a test-only copy of that tokenizer.
//
// Untrusted input discipline: every byte of the input can be hostile.
// Parsers never panic, never allocate proportionally to a forged
// entry-count claim (edge buffers scale with actual input bytes; only
// the final CSR offsets array scales with the declared node count,
// bounded by int32 IDs), strip self-loops, collapse duplicate records,
// and hand back either a graph satisfying graph.Validate or a
// descriptive error.
package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"trilist/internal/graph"
	"trilist/internal/ingest/csrfile"
	"trilist/internal/obsv"
)

// Format identifies an on-disk graph encoding.
type Format int

const (
	// FormatAuto sniffs the format from the leading bytes (Detect).
	FormatAuto Format = iota
	// FormatMTX is MatrixMarket coordinate ("%%MatrixMarket ..." banner).
	FormatMTX
	// FormatSNAP is a whitespace-separated edge list with '#' comments —
	// the SNAP repository format and this repo's own text edge lists.
	FormatSNAP
	// FormatCSR is the TRCSRF mmap-able binary CSR (package csrfile).
	FormatCSR
)

// String returns the canonical flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatMTX:
		return "mtx"
	case FormatSNAP:
		return "snap"
	case FormatCSR:
		return "csr"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat resolves a format name from a flag or API field. The
// empty string and "auto" select sniffing; "edgelist" and "txt" are
// aliases for snap.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatAuto, nil
	case "mtx", "matrixmarket", "matrix-market":
		return FormatMTX, nil
	case "snap", "edgelist", "edge-list", "txt", "text":
		return FormatSNAP, nil
	case "csr", "csrfile", "trcsrf":
		return FormatCSR, nil
	}
	return 0, fmt.Errorf("ingest: unknown format %q (want auto, mtx, snap, or csr)", s)
}

// Magic prefixes. tricsrMagic marks the retired TRICSR stream format
// (with its version byte; v1 is the only version ever written), which
// no reader decodes any more: its files are refused with
// errRetiredTRICSR instead of being mis-parsed as a SNAP edge list.
var (
	csrMagic    = []byte("TRCSRF")
	tricsrMagic = []byte("TRICSR\x00\x01")
	mtxMagic    = []byte("%%matrixmarket")
)

var errRetiredTRICSR = errors.New("ingest: input is in the retired TRICSR binary format, " +
	"which is no longer read; regenerate the graph with gengraph -format csr (TRCSRF)")

// Detect sniffs the concrete format of data. It never returns
// FormatAuto: anything that is not a recognized banner or TRCSRF magic
// is treated as a SNAP edge list (whose own parser produces the
// diagnostics for malformed text; Parse refuses retired TRICSR input
// before any parser runs).
func Detect(data []byte) Format {
	if len(data) >= len(mtxMagic) && equalFold(data[:len(mtxMagic)], "%%matrixmarket") {
		return FormatMTX
	}
	if bytes.HasPrefix(data, csrMagic) {
		return FormatCSR
	}
	return FormatSNAP
}

// Options tunes a parse. The zero value is a sensible default; no
// option changes the resulting graph, only how fast it is produced.
type Options struct {
	// Workers is the number of parse goroutines; values below 1 select
	// GOMAXPROCS. The result is bitwise identical at every setting.
	Workers int
	// ChunkBytes overrides the nominal chunk size of the byte-range
	// split (values below 1 pick one from the input size and Workers).
	// Any value yields the identical graph; tests shrink it to force
	// records onto shard boundaries.
	ChunkBytes int
	// Recorder, when non-nil, receives parse and build stage spans
	// (obsv.StageParse, obsv.StageBuild).
	Recorder *obsv.Recorder
}

// Parse decodes data in the given format (sniffing when FormatAuto)
// and returns the graph plus the concrete format used. Input in the
// retired TRICSR format is an error whatever the format.
func Parse(data []byte, f Format, o Options) (*graph.Graph, Format, error) {
	if f == FormatAuto {
		f = Detect(data)
	}
	if bytes.HasPrefix(data, tricsrMagic) {
		return nil, f, errRetiredTRICSR
	}
	switch f {
	case FormatMTX:
		g, err := ParseMTX(data, o)
		return g, f, err
	case FormatSNAP:
		g, err := ParseSNAP(data, o)
		return g, f, err
	case FormatCSR:
		sp := o.Recorder.Start(obsv.StageParse)
		g, err := csrfile.ReadBytes(data)
		sp.End()
		return g, f, err
	}
	return nil, f, fmt.Errorf("ingest: unknown format %v", f)
}

// Loaded is a graph loaded from a file, plus the resources backing it.
// CSR files are memory-mapped, so the graph aliases the mapping and is
// only valid until Close; other formats own their memory and Close is
// a no-op. Always Close, and only after the last use of Graph.
type Loaded struct {
	// Graph is the loaded graph.
	Graph *graph.Graph
	// Format is the concrete format the file decoded as.
	Format Format
	closer io.Closer
}

// Close releases any file mapping backing the graph.
func (l *Loaded) Close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	c := l.closer
	l.closer = nil
	return c.Close()
}

// LoadFile loads the graph file at path, or standard input when path
// is empty. TRCSRF files are memory-mapped (no parse, no copy — the
// restart path for multi-GB graphs); every other input is read whole
// and handed to Parse with o.
func LoadFile(path string, f Format, o Options) (*Loaded, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		if f == FormatAuto || f == FormatCSR {
			if f, err = sniffFile(path, f); err != nil {
				return nil, err
			}
		}
		if f == FormatCSR {
			sp := o.Recorder.Start(obsv.StageParse)
			m, err := csrfile.Open(path)
			sp.End()
			if err != nil {
				return nil, err
			}
			return &Loaded{Graph: m.Graph(), Format: f, closer: m}, nil
		}
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	g, f, err := Parse(data, f, o)
	if err != nil {
		return nil, err
	}
	return &Loaded{Graph: g, Format: f}, nil
}

// sniffFile reads the head of the file at path and resolves f against
// it: FormatAuto becomes the detected format, and a retired TRICSR
// head is refused before csrfile.Open could report a bare bad magic.
func sniffFile(path string, f Format) (Format, error) {
	fd, err := os.Open(path)
	if err != nil {
		return f, err
	}
	defer fd.Close()
	head := make([]byte, len(mtxMagic))
	k, err := io.ReadFull(fd, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return f, err
	}
	if bytes.HasPrefix(head[:k], tricsrMagic) {
		return f, errRetiredTRICSR
	}
	if f == FormatAuto {
		f = Detect(head[:k])
	}
	return f, nil
}
