// Package csrfile implements the TRCSRF on-disk graph format: a
// versioned, checksummed binary CSR that a process can map into memory
// and serve from directly, skipping the parse-and-build pipeline on
// every restart. The layout (spec: docs/CSRFILE.md) keeps both payload
// arrays 8-byte aligned behind a fixed 64-byte header, so an mmap'ed
// file reinterprets as the graph's offset and neighbor arrays with zero
// copies:
//
//	 0   6   magic "TRCSRF"
//	 6   2   version uint16 (= 1), little-endian
//	 8   8   n int64 — number of nodes
//	16   8   m int64 — number of undirected edges
//	24   4   CRC-32C (Castagnoli) of the payload bytes
//	28   4   CRC-32C of header bytes [0, 28)
//	32  32   registration digest (sha256 of the registered body), or zero
//	64       offsets: (n+1) × int64, little-endian
//	...      neighbors: 2m × int32, little-endian
//
// Every loader verifies, in order: magic, version, header checksum,
// header plausibility (n, m bounds), exact file size, payload checksum,
// and finally the full structural invariants (graph.Validate) — so a
// truncated, bit-flipped, or crafted file produces a descriptive error,
// never garbage triangles.
package csrfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"trilist/internal/graph"
)

// Version is the current format version; loaders reject others.
const Version = 1

// headerSize is the fixed byte length of the TRCSRF header.
const headerSize = 64

// DigestSize is the byte length of the registration digest that header
// bytes [32, 64) hold.
const DigestSize = 32

var magic = [6]byte{'T', 'R', 'C', 'S', 'R', 'F'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadSize returns the exact byte length of the payload sections.
func payloadSize(n, m int64) int64 { return 8*(n+1) + 8*m }

// encodeHeader renders the fixed header for a graph with n nodes, m
// edges, and the given payload checksum.
func encodeHeader(n, m int64, payloadCRC uint32) [headerSize]byte {
	var h [headerSize]byte
	copy(h[0:6], magic[:])
	binary.LittleEndian.PutUint16(h[6:8], Version)
	binary.LittleEndian.PutUint64(h[8:16], uint64(n))
	binary.LittleEndian.PutUint64(h[16:24], uint64(m))
	binary.LittleEndian.PutUint32(h[24:28], payloadCRC)
	binary.LittleEndian.PutUint32(h[28:32], crc32.Checksum(h[:28], castagnoli))
	return h
}

// decodeHeader validates a header block and extracts its fields. The
// check order yields the most specific error: magic, version, header
// checksum, then field plausibility.
func decodeHeader(h []byte) (n, m int64, payloadCRC uint32, err error) {
	if len(h) < headerSize {
		return 0, 0, 0, fmt.Errorf("csrfile: %d-byte file is shorter than the %d-byte header", len(h), headerSize)
	}
	if [6]byte(h[0:6]) != magic {
		return 0, 0, 0, fmt.Errorf("csrfile: bad magic %q (not a TRCSRF file)", h[0:6])
	}
	if v := binary.LittleEndian.Uint16(h[6:8]); v != Version {
		return 0, 0, 0, fmt.Errorf("csrfile: unsupported version %d (this reader speaks version %d)", v, Version)
	}
	if got, want := crc32.Checksum(h[:28], castagnoli), binary.LittleEndian.Uint32(h[28:32]); got != want {
		return 0, 0, 0, fmt.Errorf("csrfile: header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	n = int64(binary.LittleEndian.Uint64(h[8:16]))
	m = int64(binary.LittleEndian.Uint64(h[16:24]))
	if n < 0 || m < 0 || (n == 0 && m > 0) {
		return 0, 0, 0, fmt.Errorf("csrfile: implausible header n=%d m=%d", n, m)
	}
	const maxNodes = 1 << 31
	if n > maxNodes {
		return 0, 0, 0, fmt.Errorf("csrfile: n=%d exceeds int32 node IDs", n)
	}
	// A simple graph holds at most C(n, 2) edges; a forged header must
	// not drive allocations or mappings beyond that.
	if maxM := n * (n - 1) / 2; m > maxM {
		return 0, 0, 0, fmt.Errorf("csrfile: header claims m=%d > n(n-1)/2 = %d", m, maxM)
	}
	return n, m, binary.LittleEndian.Uint32(h[24:28]), nil
}

// payloadChunks streams the payload encoding (offsets then neighbors)
// through emit in bounded chunks, so both the checksum pass and the
// write pass share one encoder and never materialize the payload.
func payloadChunks(offsets []int64, nbrs []int32, emit func([]byte) error) error {
	buf := make([]byte, 0, 1<<16)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := emit(buf)
		buf = buf[:0]
		return err
	}
	for _, v := range offsets {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range nbrs {
		if len(buf)+4 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return flush()
}

// Write serializes g in TRCSRF form with a zero digest. The payload is
// encoded twice — once to checksum it into the header, once to emit it —
// trading a second O(n+m) scan for never buffering the whole payload.
func Write(w io.Writer, g *graph.Graph) error {
	return write(w, g, [DigestSize]byte{})
}

// write is Write recording digest in header bytes [32, 64).
func write(w io.Writer, g *graph.Graph, digest [DigestSize]byte) error {
	offsets, nbrs := g.CSR()
	if len(offsets) == 0 {
		offsets = []int64{0} // empty graph still carries its one offset
	}
	n := int64(len(offsets) - 1)
	m := g.NumEdges()
	crc := uint32(0)
	_ = payloadChunks(offsets, nbrs, func(b []byte) error {
		crc = crc32.Update(crc, castagnoli, b)
		return nil
	})
	h := encodeHeader(n, m, crc)
	copy(h[32:], digest[:])
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(h[:]); err != nil {
		return fmt.Errorf("csrfile: writing header: %w", err)
	}
	if err := payloadChunks(offsets, nbrs, func(b []byte) error {
		_, err := bw.Write(b)
		return err
	}); err != nil {
		return fmt.Errorf("csrfile: writing payload: %w", err)
	}
	return bw.Flush()
}

// WriteFile atomically writes g to path, recording digest in the header
// (see Mapped.Digest): the bytes land in a temporary file in the same
// directory, are synced, and are renamed over path, so a crash
// mid-write never leaves a partial file under the final name. The
// directory is synced after the rename, so once WriteFile returns nil
// the new name survives a crash too.
func WriteFile(path string, g *graph.Graph, digest [DigestSize]byte) (err error) {
	dir, base := splitPath(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return fmt.Errorf("csrfile: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = write(f, g, digest); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("csrfile: syncing %s: %w", f.Name(), err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("csrfile: closing %s: %w", f.Name(), err)
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("csrfile: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("csrfile: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("csrfile: syncing directory %s: %w", dir, err)
	}
	return nil
}

// IsTemp reports whether the base name is one of the temp files that
// WriteFile creates beside a *.csrf target. A writer killed before its
// rename leaves one behind, and it never holds a finished image.
func IsTemp(name string) bool {
	ok, _ := filepath.Match(".*.csrf.tmp*", name)
	return ok
}

// splitPath separates path into its directory and final element
// without importing path/filepath semantics beyond the separator.
func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1], path[i+1:]
		}
	}
	return ".", path
}

// ReadBytes deserializes a complete in-memory TRCSRF image (a network
// body or stdin) into a graph that owns its memory; Open is its
// zero-copy counterpart for files. It checks that the header's claimed
// n and m match len(data) exactly before allocating anything — the
// same backstop Open applies via file size — so a 64-byte forged
// header cannot drive allocations beyond the bytes actually received.
func ReadBytes(data []byte) (*graph.Graph, error) {
	n, m, wantCRC, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	if want := headerSize + payloadSize(n, m); int64(len(data)) != want {
		return nil, fmt.Errorf("csrfile: input is %d bytes but the header implies %d (truncated or padded)",
			len(data), want)
	}
	// n+1 and 2m fit in int: the size check bounds both by len(data)/4.
	offsets := make([]int64, int(n+1))
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(data[headerSize+8*i:]))
	}
	nbrs := make([]int32, int(2*m))
	base := headerSize + 8*int(n+1)
	for i := range nbrs {
		nbrs[i] = int32(binary.LittleEndian.Uint32(data[base+4*i:]))
	}
	return verifyPayload(data, n, m, wantCRC, offsets, nbrs)
}

// Mapped is a graph backed by an open file mapping (or, on platforms
// without mmap support, a plain in-memory copy). The graph is valid
// until Close; Close invalidates every slice the graph handed out.
type Mapped struct {
	g      *graph.Graph
	data   []byte // mmap'ed region; nil for the copying fallback
	digest [DigestSize]byte
	closed bool
}

// Graph returns the loaded graph. It must not be used after Close.
func (m *Mapped) Graph() *graph.Graph { return m.g }

// Digest returns the registration digest recorded in the header: the
// sha256 of the body the graph was registered from, or zero for an
// image written without one (Write, and files from before the field).
// No checksum covers it.
func (m *Mapped) Digest() [DigestSize]byte { return m.digest }

// Close releases the mapping. Idempotent.
func (m *Mapped) Close() error {
	if m == nil || m.closed {
		return nil
	}
	m.closed = true
	if m.data != nil {
		return unmap(m.data)
	}
	return nil
}

// Open maps the TRCSRF file at path into memory and returns the graph
// backed by it. All header, size, checksum, and structural checks run
// before the graph is returned; the mapping is read-only, which the
// graph API honors (nothing writes to a constructed graph).
func Open(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csrfile: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("csrfile: %w", err)
	}
	var h [headerSize]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		return nil, fmt.Errorf("csrfile: %s: reading header: %w", path, err)
	}
	n, m, wantCRC, err := decodeHeader(h[:])
	if err != nil {
		return nil, fmt.Errorf("csrfile: %s: %w", path, stripPrefix(err))
	}
	if want := headerSize + payloadSize(n, m); st.Size() != want {
		return nil, fmt.Errorf("csrfile: %s: file is %d bytes but the header implies %d (truncated or padded)",
			path, st.Size(), want)
	}
	mapped, err := openMapped(f, int(st.Size()), n, m, wantCRC)
	if err != nil {
		return nil, fmt.Errorf("csrfile: %s: %w", path, stripPrefix(err))
	}
	mapped.digest = [DigestSize]byte(h[32:])
	return mapped, nil
}

// stripPrefix drops the "csrfile: " prefix from nested errors so Open
// can re-wrap them with the path without stuttering.
func stripPrefix(err error) error {
	const p = "csrfile: "
	s := err.Error()
	if len(s) > len(p) && s[:len(p)] == p {
		return fmt.Errorf("%s", s[len(p):])
	}
	return err
}

// verifyPayload checks the payload checksum of a fully loaded file
// image and builds the validated graph over the given arrays.
func verifyPayload(data []byte, n, m int64, wantCRC uint32, offsets []int64, nbrs []int32) (*graph.Graph, error) {
	if got := crc32.Checksum(data[headerSize:], castagnoli); got != wantCRC {
		return nil, fmt.Errorf("csrfile: payload checksum mismatch (stored %08x, computed %08x): file corrupted", wantCRC, got)
	}
	g, err := graph.FromCSR(offsets, nbrs)
	if err != nil {
		return nil, fmt.Errorf("csrfile: payload checksums but is not a valid graph: %w", err)
	}
	return g, nil
}
