package extmem

import (
	"fmt"
	"sync"
)

// MemStore keeps blocks in memory while metering traffic as a disk
// store would: every Read counts one block read and its arcs.
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
