package extmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// MemStore keeps blocks in memory while metering traffic exactly like a
// disk store would — the simulation substrate for I/O experiments (the
// real store below pays the same arc counts plus actual file I/O).
// Read, Stats and Append are safe for concurrent use (the BlockStore
// contract requires it only of Read and Stats; Run appends serially).
type MemStore struct {
	mu     sync.Mutex
	blocks map[[2]int][]Arc
	stats  IOStats
	closed bool
}

// NewMemStore returns an empty in-memory block store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[[2]int][]Arc)}
}

// Append adds arcs to block (i, j).
func (s *MemStore) Append(i, j int, arcs []Arc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("extmem: store is closed")
	}
	key := [2]int{i, j}
	s.blocks[key] = append(s.blocks[key], arcs...)
	s.stats.ArcsWritten += int64(len(arcs))
	return nil
}

// Read returns a copy of block (i, j). Safe for concurrent use.
func (s *MemStore) Read(i, j int) ([]Arc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("extmem: store is closed")
	}
	block := s.blocks[[2]int{i, j}]
	s.stats.BlockReads++
	s.stats.ArcsRead += int64(len(block))
	out := make([]Arc, len(block))
	copy(out, block)
	return out, nil
}

// Stats returns the cumulative meters.
func (s *MemStore) Stats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close invalidates the store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.blocks = nil
	return nil
}

// blockGlob matches the files FileStore spills — the namespace swept at
// open and removed at Close.
const blockGlob = "block_*.arcs"

// FileStore spills each block to its own binary file under a directory,
// with buffered appends and sequential reads — the production path for
// graphs whose orientation does not fit in memory. Arc records are
// fixed-size little-endian (y, x) int32 pairs. Read and Stats are safe
// for concurrent use (each Read opens its own handle); Append is
// serial, per the BlockStore contract.
type FileStore struct {
	dir string

	mu     sync.Mutex
	files  map[[2]int]*os.File
	stats  IOStats
	closed bool
}

// NewFileStore creates a store rooted at dir (created if needed; must be
// writable). Stale block files from a previous aborted run are removed
// first — appends into leftovers would silently corrupt blocks, since
// Run requires an empty store. The caller owns the directory's
// lifecycle; Close removes the store's block files.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("extmem: creating store dir: %w", err)
	}
	stale, err := filepath.Glob(filepath.Join(dir, blockGlob))
	if err != nil {
		return nil, fmt.Errorf("extmem: scanning store dir: %w", err)
	}
	for _, path := range stale {
		if err := os.Remove(path); err != nil {
			return nil, fmt.Errorf("extmem: removing stale block: %w", err)
		}
	}
	return &FileStore{dir: dir, files: make(map[[2]int]*os.File)}, nil
}

func (s *FileStore) path(i, j int) string {
	return filepath.Join(s.dir, fmt.Sprintf("block_%d_%d.arcs", i, j))
}

// Append adds arcs to block (i, j), creating its file on first use.
func (s *FileStore) Append(i, j int, arcs []Arc) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("extmem: store is closed")
	}
	key := [2]int{i, j}
	f, ok := s.files[key]
	if !ok {
		var err error
		f, err = os.OpenFile(s.path(i, j), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("extmem: opening block (%d,%d): %w", i, j, err)
		}
		s.files[key] = f
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [8]byte
	for _, a := range arcs {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(a.Y))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(a.X))
		if _, err := w.Write(rec[:]); err != nil {
			return fmt.Errorf("extmem: writing block (%d,%d): %w", i, j, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("extmem: flushing block (%d,%d): %w", i, j, err)
	}
	s.stats.ArcsWritten += int64(len(arcs))
	return nil
}

// Read loads block (i, j) sequentially through a private handle, so
// concurrent Reads never share file-offset state. Missing blocks read
// as empty.
func (s *FileStore) Read(i, j int) ([]Arc, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("extmem: store is closed")
	}
	s.stats.BlockReads++
	s.mu.Unlock()
	f, err := os.Open(s.path(i, j))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("extmem: opening block (%d,%d): %w", i, j, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var arcs []Arc
	var rec [8]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("extmem: reading block (%d,%d): %w", i, j, err)
		}
		arcs = append(arcs, Arc{
			Y: int32(binary.LittleEndian.Uint32(rec[0:4])),
			X: int32(binary.LittleEndian.Uint32(rec[4:8])),
		})
	}
	s.mu.Lock()
	s.stats.ArcsRead += int64(len(arcs))
	s.mu.Unlock()
	return arcs, nil
}

// Stats returns the cumulative meters.
func (s *FileStore) Stats() IOStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close closes every open block file and removes all block files under
// the store's directory — including ones an interrupted earlier run of
// the same store left behind, so error paths never leak spill files.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, f := range s.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.files = nil
	paths, err := filepath.Glob(filepath.Join(s.dir, blockGlob))
	if err != nil && firstErr == nil {
		firstErr = err
	}
	for _, path := range paths {
		if err := os.Remove(path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
