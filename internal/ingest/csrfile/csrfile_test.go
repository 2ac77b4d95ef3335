package csrfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/testkit"
)

// encode renders a graph's TRCSRF image in memory.
func encode(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for name, g := range testkit.BoundaryGraphs(t) {
		t.Run(name, func(t *testing.T) {
			img := encode(t, g)
			if want := headerSize + payloadSize(int64(g.NumNodes()), g.NumEdges()); int64(len(img)) != want {
				t.Fatalf("image is %d bytes, want %d", len(img), want)
			}

			// In-memory reader (the server ingestion path).
			got, err := ReadBytes(img)
			if err != nil {
				t.Fatalf("ReadBytes: %v", err)
			}
			if !testkit.GraphsEqual(got, g) {
				t.Fatal("ReadBytes round trip changed the graph")
			}

			// Mmap loader, via a real file.
			path := filepath.Join(t.TempDir(), "g.csrf")
			if err := WriteFile(path, g, [DigestSize]byte{}); err != nil {
				t.Fatal(err)
			}
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, img) {
				t.Fatal("WriteFile bytes differ from Write bytes")
			}
			m, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !testkit.GraphsEqual(m.Graph(), g) {
				t.Fatal("Open round trip changed the graph")
			}

			// Byte-identical re-encode of the mapped graph: the format is
			// canonical, so graph -> file -> graph -> file is a fixpoint.
			if !bytes.Equal(encode(t, m.Graph()), img) {
				t.Fatal("re-encoding the mapped graph changed the bytes")
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrf")
	g := testkit.BoundaryGraphs(t)["k4"]
	// Writing over an existing file replaces it wholesale.
	for i := 0; i < 2; i++ {
		if err := WriteFile(path, g, [DigestSize]byte{}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "g.csrf" {
		t.Fatalf("directory not clean after WriteFile: %v", ents)
	}
}

// corrupt returns a copy of img with one mutation applied.
func corrupt(img []byte, mutate func(b []byte)) []byte {
	b := bytes.Clone(img)
	mutate(b)
	return b
}

// TestFaultInjection is the fault wall: every corruption of a valid
// file must produce a descriptive error — from both the in-memory
// reader and the mmap loader — never a graph and never a panic. Both
// check the exact size before the payload, so every truncation
// surfaces as that size check (or, below 64 bytes, as a short header).
func TestFaultInjection(t *testing.T) {
	g := testkit.BoundaryGraphs(t)["k4"]
	img := encode(t, g)
	cases := []struct {
		name string
		img  []byte
		want string // error substring
	}{
		{"empty file", nil, "shorter than"},
		{"short header", img[:10], "shorter than"},
		{"header only", img[:headerSize], "truncated or padded"},
		{"mid payload", img[:headerSize+13], "truncated or padded"},
		{"one byte short", img[:len(img)-1], "truncated or padded"},
		{"flipped magic", corrupt(img, func(b []byte) { b[0] = 'X' }), "bad magic"},
		{"flipped version", corrupt(img, func(b []byte) { b[6] = 9 }), "unsupported version 9"},
		{"flipped n", corrupt(img, func(b []byte) { b[8] ^= 0xFF }), "header checksum mismatch"},
		{"flipped m", corrupt(img, func(b []byte) { b[16] ^= 0x01 }), "header checksum mismatch"},
		{"flipped payload crc", corrupt(img, func(b []byte) { b[24] ^= 0x01 }), "header checksum mismatch"},
		{"flipped payload byte", corrupt(img, func(b []byte) { b[headerSize+5] ^= 0x01 }), "payload checksum mismatch"},
		{"flipped last byte", corrupt(img, func(b []byte) { b[len(b)-1] ^= 0x80 }), "payload checksum mismatch"},
	}

	// A header forged with a consistent checksum but absurd m must be
	// rejected by plausibility, not by a giant allocation.
	forged := encodeHeader(4, 1<<40, 0)
	cases = append(cases, struct {
		name string
		img  []byte
		want string
	}{"forged huge m", forged[:], "n(n-1)/2"})

	// A payload that checksums but violates CSR structure (offsets not
	// ending at 2m) must fail graph validation.
	badPayload := corrupt(img, func(b []byte) {})
	// offsets[1] lives at bytes [72, 80); lower it so the row bounds lie.
	badPayload[headerSize+8] = 0xFF
	badPayload = fixPayloadCRC(badPayload)
	cases = append(cases, struct {
		name string
		img  []byte
		want string
	}{"checksummed but invalid", badPayload, "not a valid graph"})

	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBytes(tc.img); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadBytes error %v, want substring %q", err, tc.want)
			}
			path := filepath.Join(dir, "fault.csrf")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := Open(path)
			if err == nil {
				m.Close()
				t.Fatalf("Open accepted the corruption, want substring %q", tc.want)
			}
			// Open reads a short header with io.ReadFull, so a file
			// below 64 bytes fails there rather than at the size check.
			if !strings.Contains(err.Error(), tc.want) && !strings.Contains(err.Error(), "reading header") {
				t.Errorf("Open error %v, want substring %q", err, tc.want)
			}
		})
	}

	// A padded file (trailing garbage) passes checksums on its prefix
	// but fails Open's exact-size check.
	padded := append(bytes.Clone(img), 0xEE)
	path := filepath.Join(dir, "padded.csrf")
	if err := os.WriteFile(path, padded, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "truncated or padded") {
		t.Errorf("padded file: %v, want size mismatch", err)
	}
	if _, err := ReadBytes(padded); err == nil || !strings.Contains(err.Error(), "truncated or padded") {
		t.Errorf("ReadBytes padded: %v, want size mismatch", err)
	}

	if _, err := Open(filepath.Join(dir, "missing.csrf")); err == nil {
		t.Error("Open accepted a missing file")
	}
}

// TestForgedHeaderBoundedAllocation: a checksum-consistent header
// claiming n=2^31 describes a ~16 GiB payload, and it is reachable
// remotely — Detect sniffs the TRCSRF magic on POST /v1/graphs.
// ReadBytes must fail with a descriptive error after allocating memory
// proportional to the bytes that actually arrived (64), never to the
// header's claim.
func TestForgedHeaderBoundedAllocation(t *testing.T) {
	forged := encodeHeader(1<<31, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errBytes := ReadBytes(forged[:])
	runtime.ReadMemStats(&after)
	if errBytes == nil || !strings.Contains(errBytes.Error(), "truncated or padded") {
		t.Errorf("ReadBytes: %v, want size mismatch", errBytes)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<24 {
		t.Errorf("ReadBytes allocated %d bytes handling a 64-byte forged header", delta)
	}
}

// fixPayloadCRC recomputes both checksums after a deliberate payload
// mutation, preserving the stored n and m, so the corruption reaches
// graph validation instead of tripping the checksum.
func fixPayloadCRC(img []byte) []byte {
	n := int64(binary.LittleEndian.Uint64(img[8:16]))
	m := int64(binary.LittleEndian.Uint64(img[16:24]))
	h := encodeHeader(n, m, crc32.Checksum(img[headerSize:], castagnoli))
	copy(img[:headerSize], h[:])
	return img
}
