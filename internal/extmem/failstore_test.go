package extmem

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trilist/internal/digraph"
	"trilist/internal/exec"
)

// failStore wraps a BlockStore and injects an error once a countdown of
// Append or Read calls runs out — fault injection for Run's partition
// and triple passes, in the spirit of internal/graph's failWriter. The
// countdowns are locked because parallel runs Read from many workers.
type failStore struct {
	inner       BlockStore
	mu          sync.Mutex
	appendsLeft int // inject on the call after this many succeed (-1 = never)
	readsLeft   int
}

var errInjected = errors.New("synthetic: store fault")

func (s *failStore) Append(i, j int, arcs []Arc) error {
	if !countdown(&s.mu, &s.appendsLeft) {
		return errInjected
	}
	return s.inner.Append(i, j, arcs)
}

func (s *failStore) Read(i, j int) ([]Arc, error) {
	if !countdown(&s.mu, &s.readsLeft) {
		return nil, errInjected
	}
	return s.inner.Read(i, j)
}

// countdown reports whether one more call may succeed, consuming it.
func countdown(mu *sync.Mutex, left *int) bool {
	mu.Lock()
	defer mu.Unlock()
	if *left == 0 {
		return false
	}
	if *left > 0 {
		*left--
	}
	return true
}

func (s *failStore) Stats() IOStats { return s.inner.Stats() }
func (s *failStore) Close() error   { return s.inner.Close() }

// TestRunPropagatesAppendErrors fails the k-th Append of the
// partitioning pass for increasing k until Run survives them all.
func TestRunPropagatesAppendErrors(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	for k := 0; ; k++ {
		if k > 1000 {
			t.Fatal("append countdown never exhausted the partition pass")
		}
		fs := &failStore{inner: NewMemStore(), appendsLeft: k, readsLeft: -1}
		_, err := Run(context.Background(), o, 3, fs, nil)
		if err == nil {
			if k == 0 {
				t.Fatal("first-append fault not propagated")
			}
			return // every Append of this run succeeded; fault space covered
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: got %v, want injected fault", k, err)
		}
		fs.Close()
	}
}

// TestRunPropagatesReadErrors fails the k-th Read of the triple passes.
func TestRunPropagatesReadErrors(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	for k := 0; ; k++ {
		if k > 10000 {
			t.Fatal("read countdown never exhausted the triple passes")
		}
		fs := &failStore{inner: NewMemStore(), appendsLeft: -1, readsLeft: k}
		_, err := Run(context.Background(), o, 3, fs, nil)
		if err == nil {
			if k == 0 {
				t.Fatal("first-read fault not propagated")
			}
			return
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("k=%d: got %v, want injected fault", k, err)
		}
		fs.Close()
	}
}

// TestStoresRejectUseAfterClose covers MemStore's closed paths.
func TestStoresRejectUseAfterClose(t *testing.T) {
	s := NewMemStore()
	if err := s.Append(0, 0, []Arc{{Y: 1, X: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0, 0, []Arc{{Y: 1, X: 0}}); err == nil {
		t.Error("Append after Close succeeded")
	}
	if _, err := s.Read(0, 0); err == nil {
		t.Error("Read after Close succeeded")
	}
	// Double Close is harmless.
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// chaosStore wraps a BlockStore with configurable chaos for the
// parallel triple schedule: one permanently failing block, and an
// optional gate that parks the first Read of a chosen block until the
// test releases it.
// Concurrency-safe — it sits under multi-worker runs.
type chaosStore struct {
	inner BlockStore

	perm      *[2]int // this block always fails with errPermanent
	gateBlock [2]int  // with gate != nil, first Read of this block parks
	gate      <-chan struct{}

	mu    sync.Mutex
	gated bool
}

var errPermanent = errors.New("synthetic: permanent store fault")

func (s *chaosStore) Append(i, j int, arcs []Arc) error { return s.inner.Append(i, j, arcs) }
func (s *chaosStore) Stats() IOStats                    { return s.inner.Stats() }
func (s *chaosStore) Close() error                      { return s.inner.Close() }

func (s *chaosStore) Read(i, j int) ([]Arc, error) {
	key := [2]int{i, j}
	if s.perm != nil && key == *s.perm {
		return nil, errPermanent
	}
	s.mu.Lock()
	park := s.gate != nil && !s.gated && key == s.gateBlock
	if park {
		s.gated = true
	}
	s.mu.Unlock()
	if park {
		<-s.gate
	}
	return s.inner.Read(i, j)
}

// execCounters tallies executor events concurrency-safely.
type execCounters struct {
	stragglers, duplicates, failed atomic.Int64
}

func (c *execCounters) hook() func(exec.Event) {
	return func(ev exec.Event) {
		switch ev.Status {
		case exec.StatusReissued:
			c.stragglers.Add(1)
		case exec.StatusDuplicate:
			c.duplicates.Add(1)
		case exec.StatusFailed:
			c.failed.Add(1)
		}
	}
}

// cleanRunSeq is the fault-free serial reference: the triangle sequence
// and Result every chaos run is compared against.
func cleanRunSeq(t *testing.T, o *digraph.Oriented, parts int) ([][3]int32, Result) {
	t.Helper()
	return runSeq(t, o, parts, NewMemStore())
}

// TestChaosPermanentFailure: one permanently failing block surfaces the
// original error, and the committed prefix — triangles,
// passes, meters — is exactly the head of a clean serial run, identical
// at every worker count.
func TestChaosPermanentFailure(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	refSeq, refRes := cleanRunSeq(t, o, 3)

	perm := [2]int{1, 0}
	var prevSeq [][3]int32
	var prevRes Result
	for wi, workers := range []int{1, 8} {
		cs := &chaosStore{inner: NewMemStore(), perm: &perm}
		var ctr execCounters
		var seq [][3]int32
		res, err := Run(context.Background(), o, 3, cs, func(x, y, z int32) {
			seq = append(seq, [3]int32{x, y, z})
		},
			WithWorkers(workers),
			WithExecEvents(ctr.hook()))
		if !errors.Is(err, errPermanent) {
			t.Fatalf("workers=%d: got %v, want wrapped errPermanent", workers, err)
		}
		if ctr.failed.Load() == 0 {
			t.Errorf("workers=%d: no failed event recorded", workers)
		}
		if res.Triangles != int64(len(seq)) {
			t.Errorf("workers=%d: Result.Triangles=%d but visitor ran %d times", workers, res.Triangles, len(seq))
		}
		if res.Passes >= refRes.Passes {
			t.Errorf("workers=%d: failed run committed all %d passes", workers, res.Passes)
		}
		// The emitted triangles are a prefix of the clean sequence.
		if len(seq) > len(refSeq) {
			t.Fatalf("workers=%d: more triangles than the clean run", workers)
		}
		for i := range seq {
			if seq[i] != refSeq[i] {
				t.Fatalf("workers=%d: prefix diverges at %d", workers, i)
			}
		}
		if wi > 0 {
			if res != prevRes || !seqEqual(seq, prevSeq) {
				t.Errorf("failure frontier not deterministic across worker counts: %+v vs %+v", res, prevRes)
			}
		}
		prevSeq, prevRes = seq, res
	}
}

// TestChaosStragglerExactlyOnce: a triple parked mid-read until a
// speculative copy is issued proves straggler re-issue end to end — the
// run completes, at least one re-issue and first-completion-win
// happened, and the output is still byte-identical to the serial run
// (no double-reported triangles, logical meters unperturbed).
func TestChaosStragglerExactlyOnce(t *testing.T) {
	o := orientedTestGraph(t, 7, 200, 2500)
	const parts = 5
	refSeq, refRes := cleanRunSeq(t, o, parts)

	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	// Watchdog: if re-issue never fires the gate would hang the run;
	// release it after a generous timeout and let the assertions fail
	// loudly instead.
	wd := time.AfterFunc(10*time.Second, release)
	defer wd.Stop()

	cs := &chaosStore{inner: NewMemStore(), gate: gate, gateBlock: [2]int{parts - 1, parts - 1}}
	var ctr execCounters
	hook := ctr.hook()
	var seq [][3]int32
	res, err := Run(context.Background(), o, parts, cs, func(x, y, z int32) {
		seq = append(seq, [3]int32{x, y, z})
	},
		WithWorkers(4),
		WithSpeculation(),
		WithExecEvents(func(ev exec.Event) {
			hook(ev)
			if ev.Status == exec.StatusReissued {
				release()
			}
		}))
	if err != nil {
		t.Fatalf("straggler run failed: %v", err)
	}
	if ctr.stragglers.Load() == 0 {
		t.Error("no straggler re-issue happened")
	}
	if res != refRes {
		t.Errorf("Result %+v != serial %+v — speculation perturbed the meters", res, refRes)
	}
	if !seqEqual(seq, refSeq) {
		t.Error("triangle sequence diverges from serial run under speculation")
	}
	dup := make(map[[3]int32]bool, len(seq))
	for _, tri := range seq {
		if dup[tri] {
			t.Fatalf("triangle %v double-reported under speculation", tri)
		}
		dup[tri] = true
	}
}

func seqEqual(a, b [][3]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
