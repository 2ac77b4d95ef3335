package hashset

import (
	"fmt"
	"testing"
	"testing/quick"

	"trilist/internal/stats"
)

func TestEdgeSetBasics(t *testing.T) {
	s := New(4)
	s.Add(1, 0)
	s.Add(2, 1)
	s.Add(2, 1) // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Contains(1, 0) || !s.Contains(2, 1) {
		t.Fatal("missing inserted edges")
	}
	if s.Contains(0, 1) {
		t.Fatal("direction should matter")
	}
	if s.Contains(5, 6) {
		t.Fatal("phantom edge")
	}
}

func TestEdgeSetZeroKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(0,0) did not panic")
		}
	}()
	New(1).Add(0, 0)
}

func TestEdgeSetGrowth(t *testing.T) {
	s := New(0)
	for i := int32(1); i <= 10000; i++ {
		s.Add(i, i-1)
	}
	if s.Len() != 10000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := int32(1); i <= 10000; i++ {
		if !s.Contains(i, i-1) {
			t.Fatalf("lost edge (%d,%d) after growth", i, i-1)
		}
		if s.Contains(i-1, i) {
			t.Fatalf("reversed edge (%d,%d) present", i-1, i)
		}
	}
}

func TestEdgeSetMatchesMap(t *testing.T) {
	f := func(seed uint64, nOps uint16) bool {
		r := stats.NewRNGFromSeed(seed)
		s := New(8)
		ref := make(map[[2]int32]bool)
		for i := 0; i < int(nOps%500)+10; i++ {
			u := int32(r.IntN(100))
			v := int32(r.IntN(100))
			if u == 0 && v == 0 {
				continue
			}
			s.Add(u, v)
			ref[[2]int32{u, v}] = true
		}
		if s.Len() != len(ref) {
			return false
		}
		for i := 0; i < 200; i++ {
			u := int32(r.IntN(100))
			v := int32(r.IntN(100))
			if u == 0 && v == 0 {
				continue
			}
			if s.Contains(u, v) != ref[[2]int32{u, v}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(2)
	s.Add(0)
	s.Add(7)
	s.Add(7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(0) || !s.Contains(7) || s.Contains(3) {
		t.Fatal("membership wrong")
	}
}

func TestNodeSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	NewNodeSet(1).Add(-1)
}

func TestNodeSetReset(t *testing.T) {
	s := NewNodeSet(2)
	s.Add(5)
	s.Reset(100)
	if s.Len() != 0 || s.Contains(5) {
		t.Fatal("Reset did not clear")
	}
	for i := int32(0); i < 100; i++ {
		s.Add(i)
	}
	if s.Len() != 100 {
		t.Fatalf("Len after refill = %d", s.Len())
	}
}

func TestEmptySets(t *testing.T) {
	// Freshly built and freshly reset sets must answer every query
	// negatively without touching the grow path.
	cases := []struct {
		name string
		set  func() interface {
			len() int
			has(int32) bool
		}
	}{
		{"edge-new", func() interface {
			len() int
			has(int32) bool
		} {
			s := New(0)
			return probeEdge{s}
		}},
		{"node-new", func() interface {
			len() int
			has(int32) bool
		} {
			return probeNode{NewNodeSet(0)}
		}},
		{"node-reset", func() interface {
			len() int
			has(int32) bool
		} {
			s := NewNodeSet(8)
			s.Add(3)
			s.Reset(0)
			return probeNode{s}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.set()
			if s.len() != 0 {
				t.Fatalf("Len = %d, want 0", s.len())
			}
			for _, v := range []int32{0, 1, 3, 1 << 20} {
				if s.has(v) {
					t.Fatalf("empty set contains %d", v)
				}
			}
		})
	}
}

type probeEdge struct{ s *EdgeSet }

func (p probeEdge) len() int         { return p.s.Len() }
func (p probeEdge) has(v int32) bool { return p.s.Contains(v, v+1) }

type probeNode struct{ s *NodeSet }

func (p probeNode) len() int         { return p.s.Len() }
func (p probeNode) has(v int32) bool { return p.s.Contains(v) }

func TestDuplicateInsertAcrossGrowth(t *testing.T) {
	// Duplicates must stay deduplicated even when re-inserted around the
	// grow boundary (size*2 == len(keys) triggers grow mid-stream).
	cases := []struct {
		name string
		n    int32
	}{
		{"below-min-table", 3},
		{"exactly-load-limit", 4},
		{"several-grows", 1000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ns := NewNodeSet(0)
			es := New(0)
			for round := 0; round < 3; round++ {
				for i := int32(0); i < c.n; i++ {
					ns.Add(i)
					es.Add(i+1, i)
				}
			}
			if ns.Len() != int(c.n) || es.Len() != int(c.n) {
				t.Fatalf("Len = (%d, %d), want %d after duplicate rounds", ns.Len(), es.Len(), c.n)
			}
			for i := int32(0); i < c.n; i++ {
				if !ns.Contains(i) || !es.Contains(i+1, i) {
					t.Fatalf("lost %d after duplicate rounds", i)
				}
			}
		})
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"New", func() { New(-1) }},
		{"NewNodeSet", func() { NewNodeSet(-3) }},
		{"Reset", func() { NewNodeSet(4).Reset(-1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with negative capacity did not panic", c.name)
				}
			}()
			c.call()
		})
	}
}

func TestNodeSetResetShrinks(t *testing.T) {
	// One huge fill must not condemn every later Reset to clearing the
	// high-water-mark array: resetting to a small capacity reallocates.
	s := NewNodeSet(1 << 16)
	big := len(s.keys)
	for i := int32(0); i < 1<<16; i++ {
		s.Add(i)
	}
	s.Reset(4)
	if len(s.keys) >= big {
		t.Fatalf("Reset(4) kept the %d-slot table", big)
	}
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("shrunk set not empty")
	}
	// Modest oversizing (< 4x) keeps the table to avoid realloc churn.
	s.Reset(64)
	kept := len(s.keys)
	s.Reset(32)
	if len(s.keys) != kept {
		t.Fatalf("Reset(32) reallocated a %d-slot table only 2x oversized", kept)
	}
	// And it still works as a set afterwards.
	for i := int32(0); i < 32; i++ {
		s.Add(i)
	}
	if s.Len() != 32 || !s.Contains(31) {
		t.Fatal("set broken after shrink cycle")
	}
}

func TestNodeSetGrowth(t *testing.T) {
	s := NewNodeSet(0)
	for i := int32(0); i < 5000; i++ {
		s.Add(i * 3)
	}
	for i := int32(0); i < 5000; i++ {
		if !s.Contains(i * 3) {
			t.Fatalf("lost %d", i*3)
		}
		if s.Contains(i*3 + 1) {
			t.Fatalf("phantom %d", i*3+1)
		}
	}
}

// NodeSet.Reset and NodeSet.Len serve only these tests; no command
// calls them.

// Reset clears the set and sizes it for at least capacity entries.
// A table far larger than needed (>= 4x) is reallocated at the right
// size rather than wiped: one huge fill must not make every later
// Reset pay for clearing the high-water-mark array.
func (s *NodeSet) Reset(capacity int) {
	if capacity < 0 {
		panic(fmt.Sprintf("hashset: negative capacity %d", capacity))
	}
	need := tableSize(capacity)
	if need > len(s.keys) || need*4 <= len(s.keys) {
		s.keys = make([]int32, need)
		s.mask = uint32(need - 1)
	}
	for i := range s.keys {
		s.keys[i] = -1
	}
	s.size = 0
}

// Len returns the number of stored IDs.
func (s *NodeSet) Len() int { return s.size }
