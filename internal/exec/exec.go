// Package exec is a generic scatter/gather executor: n indexed tasks
// are scattered across a bounded worker pool and their results gathered
// by committing them in strict index order on the caller's goroutine —
// the protocol-fixed reduction order that makes the output of a
// parallel run byte-identical to a serial one at any worker count.
//
// It exists for the partitioned triangle lister (internal/extmem),
// whose O(P³) block-triple passes are independent, idempotent reads.
//
// Each task runs once. With Options.Speculate, once every task has been
// issued, idle workers speculatively re-run the longest-in-flight
// unfinished task; first completion wins and the loser is discarded
// before commit, so results are still committed exactly once.
//
// A task failure is surfaced only when the commit frontier reaches it:
// every task before the first permanent failure still commits, so
// partial results and meters are accurate, and the returned error wraps
// the task's original error. Run does not return until every worker
// goroutine has exited — callers may tear down shared resources (close
// a block store) the moment it returns.
package exec

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Status classifies one executor event.
type Status string

const (
	// StatusOK: a task execution completed first and will commit.
	StatusOK Status = "ok"
	// StatusFailed: an execution returned an error.
	StatusFailed Status = "failed"
	// StatusDuplicate: an execution completed after another copy of the
	// same task had already won; its result is discarded.
	StatusDuplicate Status = "duplicate"
	// StatusAbandoned: an execution was cut short because the run stopped
	// (cancellation or an earlier permanent failure).
	StatusAbandoned Status = "abandoned"
	// StatusReissued: a speculative straggler copy was launched.
	StatusReissued Status = "reissued"
)

// Event is one telemetry record. Events are emitted from worker
// goroutines; the OnEvent hook must be safe for concurrent use.
type Event struct {
	// Index of the task.
	Index int
	// Speculative marks events from a straggler re-issue copy.
	Speculative bool
	Status      Status
	// Duration of the execution (zero for StatusReissued).
	Duration time.Duration
	// Err holds the execution error for failed/abandoned events.
	Err error
}

// Options configures a Run.
type Options struct {
	// Workers bounds the pool; values below 2 run every task serially
	// on the caller's goroutine (no goroutines are spawned at all).
	Workers int
	// Speculate enables straggler re-issue (at most one extra copy per
	// task). Meaningful only with Workers > 1.
	Speculate bool
	// OnEvent, when non-nil, receives every executor event. Called from
	// worker goroutines — must be concurrency-safe.
	OnEvent func(Event)
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// maxCopies bounds concurrent executions of one task: the original plus
// one speculative re-issue.
const maxCopies = 2

type engine[T any] struct {
	opts Options
	n    int
	task func(ctx context.Context, index int) (T, error)

	mu   sync.Mutex
	cond *sync.Cond
	// next is the lowest index not yet issued.
	next    int
	results []T
	done    []bool
	errs    []error // pending permanent error; cleared if a copy wins
	// inflight counts running executions per task; copies counts total
	// launches (capped at maxCopies).
	inflight []int8
	copies   []int8
	started  []time.Time
	// failedAt is the lowest terminally failed index (n = none); fresh
	// issuing stops there, since nothing past it can ever commit.
	failedAt int
	stopped  bool
}

// Run executes task(ctx, 0..n-1) under opts and calls commit(i, v) for
// each task in strict index order, exactly once per task, on the
// caller's goroutine — so commit needs no locking and its side effects
// (visitor calls, meter merging) happen in a deterministic sequence.
//
// ctx is checked before every commit: on cancellation Run stops
// committing, waits for all workers to wind down, and returns ctx.Err()
// — the committed prefix is consistent. A permanent task failure
// surfaces once the frontier reaches it, wrapping the task's error; all
// earlier tasks have committed by then.
func Run[T any](ctx context.Context, n int, task func(ctx context.Context, index int) (T, error), commit func(index int, v T), opts Options) error {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	e := &engine[T]{
		opts:     opts,
		n:        n,
		task:     task,
		results:  make([]T, n),
		done:     make([]bool, n),
		errs:     make([]error, n),
		inflight: make([]int8, n),
		copies:   make([]int8, n),
		started:  make([]time.Time, n),
		failedAt: n,
	}
	e.cond = sync.NewCond(&e.mu)

	// ictx stops outstanding executions once the gather is over (success,
	// failure or cancellation); executions aborted by it are abandoned,
	// never counted as task failures.
	ictx, icancel := context.WithCancel(ctx)
	defer icancel()

	if opts.Workers == 1 {
		return e.runSerial(ctx, ictx, commit)
	}

	// The watcher wakes pick() and the gather loop on cancellation; it
	// exits via the same ictx once Run finishes.
	go func() {
		<-ictx.Done()
		e.mu.Lock()
		e.stopped = true
		e.cond.Broadcast()
		e.mu.Unlock()
	}()

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, speculative := e.pick()
				if idx < 0 {
					return
				}
				e.execute(ictx, idx, speculative)
			}
		}()
	}

	err := e.gather(ctx, commit)
	icancel()
	wg.Wait()
	return err
}

// runSerial is the Workers <= 1 path: same issue order, same event
// machinery, no goroutines — the identity baseline the parallel
// path must reproduce byte for byte.
func (e *engine[T]) runSerial(ctx, ictx context.Context, commit func(int, T)) error {
	for f := 0; f < e.n; f++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.mu.Lock()
		e.next = f + 1
		e.inflight[f]++
		e.copies[f]++
		e.started[f] = time.Now()
		e.mu.Unlock()
		e.execute(ictx, f, false)
		e.mu.Lock()
		done, v, terr := e.done[f], e.results[f], e.errs[f]
		e.mu.Unlock()
		switch {
		case done:
			commit(f, v)
		case terr != nil:
			return fmt.Errorf("exec: task %d: %w", f, terr)
		default:
			// The execution was abandoned: only cancellation does that here.
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("exec: task %d did not resolve", f)
		}
	}
	return nil
}

// pick hands a worker its next unit: fresh tasks in index order first,
// then — with speculation on and nothing fresh left — one extra copy of
// the longest-in-flight unfinished task. Returns -1 when the worker
// should exit; workers never block here, so the pool drains as soon as
// no useful work remains.
func (e *engine[T]) pick() (idx int, speculative bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return -1, false
	}
	if e.next < e.n && e.failedAt == e.n {
		i := e.next
		e.next++
		e.inflight[i]++
		e.copies[i]++
		e.started[i] = time.Now()
		return i, false
	}
	if !e.opts.Speculate {
		return -1, false
	}
	// Straggler re-issue: the pool is otherwise idle (no fresh work, or
	// fresh work is pointless past a failure). Tasks beyond failedAt can
	// never commit, so only copies that help the committable prefix are
	// launched.
	best := -1
	limit := e.failedAt
	for i := 0; i < limit; i++ {
		if e.done[i] || e.inflight[i] == 0 || e.copies[i] >= maxCopies {
			continue
		}
		if best < 0 || e.started[i].Before(e.started[best]) {
			best = i
		}
	}
	if best < 0 {
		return -1, false
	}
	e.inflight[best]++
	e.copies[best]++
	return best, true
}

// execute runs one execution of task idx.
func (e *engine[T]) execute(ictx context.Context, idx int, speculative bool) {
	if speculative {
		e.emit(Event{Index: idx, Speculative: true, Status: StatusReissued})
	}
	t0 := time.Now()
	v, err := e.task(ictx, idx)
	d := time.Since(t0)
	switch {
	case err == nil:
		e.record(idx, v, speculative, d)
	case ictx.Err() != nil:
		// The run is winding down; this is not a task failure.
		e.emit(Event{Index: idx, Speculative: speculative, Status: StatusAbandoned, Duration: d, Err: err})
		e.release(idx)
	default:
		e.emit(Event{Index: idx, Speculative: speculative, Status: StatusFailed, Duration: d, Err: err})
		e.fail(idx, err)
	}
}

// record finishes a successful execution; the first completion of a
// task wins, later copies are discarded as duplicates.
func (e *engine[T]) record(idx int, v T, speculative bool, d time.Duration) {
	e.mu.Lock()
	first := !e.done[idx]
	if first {
		e.done[idx] = true
		e.results[idx] = v
		if e.errs[idx] != nil {
			// Another copy had failed permanently; this success
			// supersedes it.
			e.errs[idx] = nil
			if e.failedAt == idx {
				e.recomputeFailedAtLocked()
			}
		}
	}
	e.inflight[idx]--
	e.cond.Broadcast()
	e.mu.Unlock()
	st := StatusOK
	if !first {
		st = StatusDuplicate
	}
	e.emit(Event{Index: idx, Speculative: speculative, Status: st, Duration: d})
}

// fail finishes a permanently failed execution. The task is terminal
// only once no other copy is still running.
func (e *engine[T]) fail(idx int, err error) {
	e.mu.Lock()
	e.inflight[idx]--
	if !e.done[idx] && e.errs[idx] == nil {
		e.errs[idx] = err
	}
	if !e.done[idx] && e.inflight[idx] == 0 && e.errs[idx] != nil && idx < e.failedAt {
		e.failedAt = idx
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// release finishes an abandoned execution.
func (e *engine[T]) release(idx int) {
	e.mu.Lock()
	e.inflight[idx]--
	if !e.done[idx] && e.inflight[idx] == 0 && e.errs[idx] != nil && idx < e.failedAt {
		e.failedAt = idx
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *engine[T]) recomputeFailedAtLocked() {
	e.failedAt = e.n
	for i := 0; i < e.n; i++ {
		if !e.done[i] && e.inflight[i] == 0 && e.errs[i] != nil {
			e.failedAt = i
			return
		}
	}
}

// gather commits results in index order on the caller's goroutine.
func (e *engine[T]) gather(ctx context.Context, commit func(int, T)) error {
	for f := 0; f < e.n; f++ {
		e.mu.Lock()
		for !e.done[f] && !(e.inflight[f] == 0 && e.errs[f] != nil) && !e.stopped {
			e.cond.Wait()
		}
		done, v, terr := e.done[f], e.results[f], e.errs[f]
		infl := e.inflight[f]
		e.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		switch {
		case done:
			commit(f, v)
		case infl == 0 && terr != nil:
			return fmt.Errorf("exec: task %d: %w", f, terr)
		default:
			// stopped without ctx error cannot happen while gather runs;
			// keep a defensive error rather than committing bad state.
			return fmt.Errorf("exec: task %d did not resolve", f)
		}
	}
	return nil
}

func (e *engine[T]) emit(ev Event) {
	if e.opts.OnEvent != nil {
		e.opts.OnEvent(ev)
	}
}
