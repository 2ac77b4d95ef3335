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

// TestRunRetryRecovers: transient failures are retried with backoff and
// the run still commits everything, with retry events accounted.
func TestRunRetryRecovers(t *testing.T) {
	errFlaky := errors.New("flaky")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 12
			var log eventLog
			attempts := make([]atomic.Int32, n)
			committed := 0
			err := Run(context.Background(), n,
				func(ctx context.Context, i int) (int, error) {
					// Every third task fails twice before succeeding.
					if a := attempts[i].Add(1); i%3 == 0 && a <= 2 {
						return 0, errFlaky
					}
					return i, nil
				},
				func(i, v int) { committed++ },
				Options{Workers: workers, MaxAttempts: 3, Backoff: time.Microsecond, OnEvent: log.hook()})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if committed != n {
				t.Errorf("committed %d, want %d", committed, n)
			}
			wantRetries := 2 * ((n + 2) / 3)
			if got := log.count(StatusRetry); got != wantRetries {
				t.Errorf("retry events = %d, want %d", got, wantRetries)
			}
			if got := log.count(StatusOK); got != n {
				t.Errorf("ok events = %d, want %d", got, n)
			}
		})
	}
}

// TestRunPermanentFailure: when attempts are exhausted, the full prefix
// before the failed task still commits and the returned error wraps the
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
				Options{Workers: workers, MaxAttempts: 2, Backoff: time.Microsecond})
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

// TestRunNonRetryable: with no retry budget (MaxAttempts=1) a failing
// task fails on its first attempt — no retry events, exactly one failed
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
		Options{
			Workers:     4,
			MaxAttempts: 1,
			OnEvent:     log.hook(),
		})
	if !errors.Is(err, errFatal) {
		t.Fatalf("err = %v, want errFatal", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("task 2 ran %d times, want 1", got)
	}
	if got := log.count(StatusRetry); got != 0 {
		t.Errorf("retry events = %d, want 0", got)
	}
	if got := log.countIndex(2, StatusFailed); got != 1 {
		t.Errorf("failed events for task 2 = %d, want 1", got)
	}
}

// TestRunTaskTimeout: an attempt that outlives TaskTimeout is cut by its
// context, counts as transient, and the retry succeeds.
func TestRunTaskTimeout(t *testing.T) {
	var attempts atomic.Int32
	var log eventLog
	err := Run(context.Background(), 1,
		func(ctx context.Context, i int) (int, error) {
			if attempts.Add(1) == 1 {
				<-ctx.Done() // hang until the attempt timeout fires
				return 0, ctx.Err()
			}
			return 42, nil
		},
		func(i, v int) {
			if v != 42 {
				t.Errorf("committed %d, want 42", v)
			}
		},
		Options{Workers: 2, MaxAttempts: 2, TaskTimeout: 20 * time.Millisecond, OnEvent: log.hook()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts = %d, want 2", got)
	}
	if got := log.count(StatusRetry); got != 1 {
		t.Errorf("retry events = %d, want 1", got)
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
		Options{Workers: 3, Speculate: true, MaxAttempts: 1, OnEvent: onEvent})
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
		Options{Workers: 8, MaxAttempts: 3, Backoff: time.Millisecond})
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

// TestRunBackoffInterruptible: cancellation during a retry backoff sleep
// returns promptly instead of serving out the sleep.
func TestRunBackoffInterruptible(t *testing.T) {
	errFlaky := errors.New("flaky")
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	err := Run(ctx, 1,
		func(tctx context.Context, i int) (int, error) {
			cancel() // fail while cancelling: the backoff sleep must not run
			return 0, errFlaky
		},
		func(int, int) {},
		Options{Workers: 2, MaxAttempts: 10, Backoff: 10 * time.Second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("run took %v; backoff sleep was not interrupted", d)
	}
}

// TestRunBackoffCancelPrompt: the 10ms regression bound on backoff
// interruption. The worker is parked inside a retry backoff (capped at
// 1s, but the next wake would still be ~1s away) when the run is
// cancelled; Run must return within 10ms of the cancel — the backoff
// wait is a select on the run context, not a sleep.
func TestRunBackoffCancelPrompt(t *testing.T) {
	errFlaky := errors.New("flaky")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inBackoff := make(chan struct{}, 16)
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, 1,
			func(tctx context.Context, i int) (int, error) { return 0, errFlaky },
			func(int, int) {},
			Options{
				Workers: 2, MaxAttempts: 10, Backoff: 30 * time.Second,
				OnEvent: func(ev Event) {
					if ev.Status == StatusRetry {
						inBackoff <- struct{}{}
					}
				},
			})
	}()
	<-inBackoff
	// Give the worker a beat to move from emitting the retry event into
	// the backoff select; cancelling earlier is also interrupted, it
	// just exercises a different (immediate) path.
	time.Sleep(20 * time.Millisecond)
	t0 := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation during backoff")
	}
	if d := time.Since(t0); d > 10*time.Millisecond {
		t.Errorf("cancellation took %v to interrupt backoff, want <= 10ms", d)
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
