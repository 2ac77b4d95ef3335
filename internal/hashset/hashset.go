// Package hashset implements a compact open-addressing hash set of
// directed edges packed into 64-bit keys.
//
// This is the "hash table" the paper's vertex iterators and lookup edge
// iterators (LEI) probe to verify edge existence (§2.2, §2.3): a candidate
// tuple (y, x) is a triangle edge iff y→x is present in the set. The table
// uses linear probing over a power-of-two array at load factor <= 1/2,
// giving O(1) expected probes — the "elementary comparison instruction"
// whose speed Table 3 contrasts with scanning intersection.
package hashset

import "fmt"

// EdgeSet is a set of directed edges (u, v) with u != v or u, v > 0;
// the zero key (0, 0) is reserved as the empty-slot sentinel, which is
// harmless because the paper's graphs are simple (no self-loops).
// The zero value is unusable; construct with New.
type EdgeSet struct {
	keys []uint64
	mask uint64
	size int
}

// New returns a set pre-sized for at least capacity edges.
func New(capacity int) *EdgeSet {
	if capacity < 0 {
		panic(fmt.Sprintf("hashset: negative capacity %d", capacity))
	}
	n := 16
	for n < capacity*2 { // load factor <= 1/2
		n <<= 1
	}
	return &EdgeSet{keys: make([]uint64, n), mask: uint64(n - 1)}
}

func pack(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// hash is the SplitMix64 finalizer: fast, well-mixed, and deterministic.
func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Add inserts the directed edge (u, v). Inserting (0,0) panics — that key
// is the empty-slot sentinel and corresponds to a self-loop, which simple
// graphs exclude. Duplicates are ignored.
func (s *EdgeSet) Add(u, v int32) {
	k := pack(u, v)
	if k == 0 {
		panic("hashset: cannot store edge (0,0); simple graphs have no self-loops")
	}
	if s.size*2 >= len(s.keys) {
		s.grow()
	}
	i := hash(k) & s.mask
	for {
		switch s.keys[i] {
		case 0:
			s.keys[i] = k
			s.size++
			return
		case k:
			return
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports whether the directed edge (u, v) is in the set.
func (s *EdgeSet) Contains(u, v int32) bool {
	k := pack(u, v)
	i := hash(k) & s.mask
	for {
		switch s.keys[i] {
		case 0:
			return false
		case k:
			return true
		}
		i = (i + 1) & s.mask
	}
}

// Len returns the number of stored edges.
func (s *EdgeSet) Len() int { return s.size }

func (s *EdgeSet) grow() {
	old := s.keys
	s.keys = make([]uint64, len(old)*2)
	s.mask = uint64(len(s.keys) - 1)
	s.size = 0
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := hash(k) & s.mask
		for s.keys[i] != 0 {
			i = (i + 1) & s.mask
		}
		s.keys[i] = k
		s.size++
	}
}

// NodeSet is a small open-addressing set of int32 node IDs, used by LEI to
// hash one adjacency list and probe it with the remote list. ID -1 must
// not be inserted (sentinel); valid node IDs are non-negative.
type NodeSet struct {
	keys []int32
	mask uint32
	size int
}

// NewNodeSet returns a set pre-sized for at least capacity nodes.
func NewNodeSet(capacity int) *NodeSet {
	if capacity < 0 {
		panic(fmt.Sprintf("hashset: negative capacity %d", capacity))
	}
	n := tableSize(capacity)
	s := &NodeSet{keys: make([]int32, n), mask: uint32(n - 1)}
	for i := range s.keys {
		s.keys[i] = -1
	}
	return s
}

// tableSize returns the power-of-two table length holding capacity
// entries at load factor <= 1/2, never below the minimum of 8.
func tableSize(capacity int) int {
	n := 8
	for n < capacity*2 {
		n <<= 1
	}
	return n
}

func hash32(k int32) uint32 {
	x := uint32(k)
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// Add inserts a non-negative node ID.
func (s *NodeSet) Add(v int32) {
	if v < 0 {
		panic(fmt.Sprintf("hashset: negative node ID %d", v))
	}
	if s.size*2 >= len(s.keys) {
		s.growNodes()
	}
	i := hash32(v) & s.mask
	for {
		switch s.keys[i] {
		case -1:
			s.keys[i] = v
			s.size++
			return
		case v:
			return
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports membership.
func (s *NodeSet) Contains(v int32) bool {
	i := hash32(v) & s.mask
	for {
		switch s.keys[i] {
		case -1:
			return false
		case v:
			return true
		}
		i = (i + 1) & s.mask
	}
}

func (s *NodeSet) growNodes() {
	old := s.keys
	s.keys = make([]int32, len(old)*2)
	s.mask = uint32(len(s.keys) - 1)
	for i := range s.keys {
		s.keys[i] = -1
	}
	s.size = 0
	for _, k := range old {
		if k == -1 {
			continue
		}
		i := hash32(k) & s.mask
		for s.keys[i] != -1 {
			i = (i + 1) & s.mask
		}
		s.keys[i] = k
		s.size++
	}
}
