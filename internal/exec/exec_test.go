package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// eventLog collects executor events concurrency-safely.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) hook() func(Event) {
	return func(ev Event) {
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	}
}

func (l *eventLog) count(st Status) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Status == st {
			n++
		}
	}
	return n
}

func (l *eventLog) countIndex(idx int, st Status) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Index == idx && ev.Status == st {
			n++
		}
	}
	return n
}

// TestRunInOrderCommits: at every worker count, commits arrive in strict
// index order on the caller goroutine, exactly once per task, with the
// task's own result — the determinism contract everything else rests on.
func TestRunInOrderCommits(t *testing.T) {
	const n = 50
	for _, workers := range []int{0, 1, 2, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var got []int
			err := Run(context.Background(), n,
				func(ctx context.Context, i int) (int, error) {
					if i%7 == 0 {
						time.Sleep(time.Millisecond) // jitter the finish order
					}
					return i * i, nil
				},
				func(i, v int) {
					if v != i*i {
						t.Errorf("commit(%d) got %d, want %d", i, v, i*i)
					}
					got = append(got, i)
				},
				Options{Workers: workers})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(got) != n {
				t.Fatalf("committed %d tasks, want %d", len(got), n)
			}
			for i, idx := range got {
				if idx != i {
					t.Fatalf("commit order broken at position %d: got index %d", i, idx)
				}
			}
		})
	}
}

// TestRunEmptyAndPreCancelled: n <= 0 is a no-op; an already-cancelled
// context returns immediately without running anything.
func TestRunEmptyAndPreCancelled(t *testing.T) {
	ran := false
	task := func(ctx context.Context, i int) (int, error) { ran = true; return 0, nil }
	commit := func(int, int) { ran = true }
	if err := Run(context.Background(), 0, task, commit, Options{Workers: 4}); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 10, task, commit, Options{Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task or commit ran despite empty/cancelled run")
	}
}

// TestRunPermanentFailure: when a task fails, the full prefix before
// it still commits and the returned error wraps the
// task's original error.
func TestRunPermanentFailure(t *testing.T) {
	errBroken := errors.New("broken block")
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n, bad = 20, 13
			var committed []int
			err := Run(context.Background(), n,
				func(ctx context.Context, i int) (int, error) {
					if i == bad {
						return 0, errBroken
					}
					return i, nil
				},
				func(i, v int) { committed = append(committed, i) },
				Options{Workers: workers})
			if !errors.Is(err, errBroken) {
				t.Fatalf("err = %v, want wrapped errBroken", err)
			}
			if len(committed) != bad {
				t.Fatalf("committed %d tasks, want the full prefix %d", len(committed), bad)
			}
			for i, idx := range committed {
				if idx != i {
					t.Fatalf("prefix broken at %d: got %d", i, idx)
				}
			}
		})
	}
}

// TestRunNonRetryable: a failing task runs once — it is never re-run
// without speculation, and it gets exactly one failed event and no ok
// event.
func TestRunNonRetryable(t *testing.T) {
	errFatal := errors.New("fatal")
	var log eventLog
	var attempts atomic.Int32
	err := Run(context.Background(), 5,
		func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				attempts.Add(1)
				return 0, errFatal
			}
			return i, nil
		},
		func(int, int) {},
		Options{Workers: 4, OnEvent: log.hook()})
	if !errors.Is(err, errFatal) {
		t.Fatalf("err = %v, want errFatal", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("task 2 ran %d times, want 1", got)
	}
	if got := log.countIndex(2, StatusOK); got != 0 {
		t.Errorf("ok events for task 2 = %d, want 0", got)
	}
	if got := log.countIndex(2, StatusFailed); got != 1 {
		t.Errorf("failed events for task 2 = %d, want 1", got)
	}
}

// TestRunSpeculation: with the pool otherwise idle, a straggler gets a
// second copy; first completion wins and the task still commits exactly
// once, the loser surfacing as a duplicate or abandoned event. Idle
// workers may also legally speculate on tasks 1-3 while they are in
// flight, so only task 0's re-issue releases the straggler.
func TestRunSpeculation(t *testing.T) {
	specIssued := make(chan struct{})
	var releaseOnce sync.Once
	commits := make(map[int]int)
	var log eventLog
	var calls atomic.Int32
	onEvent := func(ev Event) {
		if ev.Status == StatusReissued && ev.Index == 0 {
			releaseOnce.Do(func() { close(specIssued) })
		}
		log.hook()(ev)
	}
	err := Run(context.Background(), 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 0 && calls.Add(1) == 1 {
				// Original copy of task 0 straggles until a speculative
				// copy has been issued, then finishes normally.
				select {
				case <-specIssued:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			return i * 10, nil
		},
		func(i, v int) {
			commits[i]++
			if v != i*10 {
				t.Errorf("commit(%d) got %d", i, v)
			}
		},
		Options{Workers: 4, Speculate: true, OnEvent: onEvent})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 4; i++ {
		if commits[i] != 1 {
			t.Errorf("task %d committed %d times, want exactly once", i, commits[i])
		}
	}
	if got := log.countIndex(0, StatusReissued); got != 1 {
		t.Errorf("reissued events for task 0 = %d, want 1 (copies capped at %d)", got, maxCopies)
	}
	// One copy of task 0 won; the other finished late (duplicate) or was
	// cut short when the run completed (abandoned).
	ok := log.countIndex(0, StatusOK)
	lost := log.countIndex(0, StatusDuplicate) + log.countIndex(0, StatusAbandoned)
	if ok != 1 || lost != 1 {
		t.Errorf("task 0 ok=%d duplicate+abandoned=%d, want 1 and 1", ok, lost)
	}
}

// TestRunSpeculationRescuesFailure: the original copy fails permanently
// while a speculative copy is in flight; the copy's success supersedes
// the failure and the run completes cleanly.
func TestRunSpeculationRescuesFailure(t *testing.T) {
	errHalf := errors.New("torn read")
	specIssued := make(chan struct{})
	origFailed := make(chan struct{})
	var calls atomic.Int32
	onEvent := func(ev Event) {
		switch {
		case ev.Index == 0 && ev.Status == StatusReissued:
			close(specIssued) // task 0 has at most one speculative copy
		case ev.Index == 0 && ev.Status == StatusFailed:
			close(origFailed)
		}
	}
	committed := make(map[int]int)
	err := Run(context.Background(), 3,
		func(ctx context.Context, i int) (int, error) {
			if i != 0 {
				return i, nil
			}
			if calls.Add(1) == 1 {
				// Original copy: wait until the speculative copy exists,
				// then fail permanently.
				select {
				case <-specIssued:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
				return 0, errHalf
			}
			// Speculative copy: wait out the original's failure, then win.
			select {
			case <-origFailed:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return 7, nil
		},
		func(i, v int) { committed[i]++ },
		Options{Workers: 3, Speculate: true, OnEvent: onEvent})
	if err != nil {
		t.Fatalf("Run: %v — the speculative success should supersede the failure", err)
	}
	for i := 0; i < 3; i++ {
		if committed[i] != 1 {
			t.Errorf("task %d committed %d times, want once", i, committed[i])
		}
	}
}

// TestRunCancellation: cancelling mid-run stops commits at a consistent
// prefix, returns ctx.Err(), and leaks no goroutines.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	var committed []int
	err := Run(ctx, n,
		func(tctx context.Context, i int) (int, error) {
			if i == 10 {
				cancel()
			}
			if i > 10 {
				select {
				case <-tctx.Done():
					return 0, tctx.Err()
				case <-time.After(50 * time.Millisecond):
				}
			}
			return i, nil
		},
		func(i, v int) { committed = append(committed, i) },
		Options{Workers: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(committed) >= n {
		t.Error("cancellation did not stop the run early")
	}
	for i, idx := range committed {
		if idx != i {
			t.Fatalf("committed prefix broken at %d: got %d", i, idx)
		}
	}
	waitGoroutineSettle(t, before)
}

// TestRunSerialCancellation: the Workers=1 path honors cancellation too.
func TestRunSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var committed int
	err := Run(ctx, 10,
		func(tctx context.Context, i int) (int, error) {
			if i == 3 {
				cancel()
			}
			return i, nil
		},
		func(int, int) { committed++ },
		Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if committed > 4 {
		t.Errorf("committed %d tasks after cancel at 3", committed)
	}
}

// TestRunFailureDuringCancel: a task that fails while the run is being
// cancelled is abandoned, not failed — Run returns context.Canceled
// instead of the task's error.
func TestRunFailureDuringCancel(t *testing.T) {
	errFlaky := errors.New("flaky")
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var log eventLog
		err := Run(ctx, 1,
			func(tctx context.Context, i int) (int, error) {
				cancel()
				return 0, errFlaky
			},
			func(int, int) {},
			Options{Workers: workers, OnEvent: log.hook()})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := log.count(StatusFailed); got != 0 {
			t.Errorf("workers=%d: failed events = %d, want 0", workers, got)
		}
		if got := log.count(StatusAbandoned); got != 1 {
			t.Errorf("workers=%d: abandoned events = %d, want 1", workers, got)
		}
	}
}

// waitGoroutineSettle polls until the goroutine count returns to (near)
// the baseline — the leak check usable without external deps.
func waitGoroutineSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
