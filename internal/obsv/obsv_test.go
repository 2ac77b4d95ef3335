package obsv

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock: every reading advances time by
// step, so a span spanning k intervening clock reads lasts exactly
// (k+1)·step.
type fakeClock struct {
	now  time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(0, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

// fakeAlloc advances a byte counter by step per sample.
type fakeAlloc struct {
	total uint64
	step  uint64
}

func (a *fakeAlloc) Read() uint64 {
	a.total += a.step
	return a.total
}

func testRecorder(step time.Duration) *Recorder {
	return NewRecorder(WithClock(newFakeClock(step).Now), WithAllocSampler(nil))
}

func TestSpanWallDelta(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	sp := rec.Start(StageRank) // clock -> 1ms
	sp.End()                   // clock -> 2ms, wall = 1ms
	snap := rec.Snapshot()
	st := snap[StageRank]
	if st.Count != 1 || st.Wall != time.Millisecond {
		t.Fatalf("got %+v, want count=1 wall=1ms", st)
	}
}

func TestSpanAllocDelta(t *testing.T) {
	alloc := &fakeAlloc{step: 64}
	rec := NewRecorder(WithClock(newFakeClock(time.Millisecond).Now),
		WithAllocSampler(alloc.Read))
	sp := rec.Start(StageList) // alloc -> 64
	sp.End()                   // alloc -> 128, delta = 64
	if got := rec.Snapshot()[StageList].Bytes; got != 64 {
		t.Fatalf("alloc delta = %d, want 64", got)
	}
}

// TestSpanNesting opens an outer list span around inner rank and orient
// spans: each stage aggregates independently and the outer wall covers
// the inner clock advances.
func TestSpanNesting(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	outer := rec.Start(StageList) // t=1
	inner1 := rec.Start(StageRank)
	inner1.End()
	inner2 := rec.Start(StageOrient)
	inner2.End()
	outer.End() // t=6: outer wall = 5ms

	snap := rec.Snapshot()
	if w := snap[StageRank].Wall; w != time.Millisecond {
		t.Errorf("rank wall = %v, want 1ms", w)
	}
	if w := snap[StageOrient].Wall; w != time.Millisecond {
		t.Errorf("orient wall = %v, want 1ms", w)
	}
	if w := snap[StageList].Wall; w != 5*time.Millisecond {
		t.Errorf("outer list wall = %v, want 5ms", w)
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	sp := rec.Start(StageOrient)
	sp.End()
	sp.End() // double close must not double count
	if c := rec.Snapshot()[StageOrient].Count; c != 1 {
		t.Fatalf("span counted %d times, want 1", c)
	}
}

func TestSnapshotExcludesOpenSpans(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	sp := rec.Start(StageList)
	if len(rec.Snapshot()) != 0 {
		t.Fatal("open span leaked into snapshot")
	}
	sp.End()
	if len(rec.Snapshot()) != 1 {
		t.Fatal("closed span missing from snapshot")
	}
}

// TestCancelledRunClosesSpan mimics the job path: a sweep that stops
// early on context cancellation still closes its span via defer, so the
// stage shows up in the snapshot with the partial duration.
func TestCancelledRunClosesSpan(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())

	sweep := func(ctx context.Context) error {
		sp := rec.Start(StageList)
		defer sp.End()
		for i := 0; i < 100; i++ {
			if err := ctx.Err(); err != nil {
				return err // span closes through the defer
			}
			if i == 2 {
				cancel()
			}
		}
		return nil
	}
	if err := sweep(ctx); err != context.Canceled {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	st := rec.Snapshot()[StageList]
	if st.Count != 1 || st.Wall <= 0 {
		t.Fatalf("cancelled span not recorded: %+v", st)
	}
}

// TestTimedOutRunClosesSpan is the deadline variant: the defer fires on
// the timeout return path too.
func TestTimedOutRunClosesSpan(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	run := func() error {
		sp := rec.Start(StageList)
		defer sp.End()
		return ctx.Err()
	}
	if err := run(); err != context.DeadlineExceeded {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if c := rec.Snapshot()[StageList].Count; c != 1 {
		t.Fatalf("timed-out span count = %d, want 1", c)
	}
}

// TestConcurrentRecorder hammers one recorder from many goroutines; the
// aggregate counts must be exact (and the race detector must stay
// quiet).
func TestConcurrentRecorder(t *testing.T) {
	rec := NewRecorder(WithAllocSampler(nil))
	const goroutines, spans = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sp := rec.Start(StageList)
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := rec.Snapshot()
	if c := snap[StageList].Count; c != goroutines*spans {
		t.Errorf("list count = %d, want %d", c, goroutines*spans)
	}
}

// TestNilRecorderZeroAlloc is the zero-overhead contract: the nil
// recorder's span open/close path performs no allocations at all.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Start(StageList)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder span = %v allocs/op, want 0", allocs)
	}
}

func TestNilRecorderMethods(t *testing.T) {
	var rec *Recorder
	if rec.Snapshot() != nil || rec.Stages() != nil || rec.Format() != "" {
		t.Fatal("nil recorder must report empty state")
	}
}

func TestStagesOrder(t *testing.T) {
	rec := testRecorder(time.Millisecond)
	for _, s := range []Stage{"zzz", StageList, StageGenerate, "aaa", StageRank} {
		sp := rec.Start(s)
		sp.End()
	}
	got := rec.Stages()
	want := []Stage{StageGenerate, StageRank, StageList, "aaa", "zzz"}
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Stages() = %v, want %v", got, want)
		}
	}
}

func BenchmarkNilRecorderSpan(b *testing.B) {
	var rec *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(StageList)
		sp.End()
	}
}

func BenchmarkRecorderSpan(b *testing.B) {
	rec := NewRecorder(WithAllocSampler(nil))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := rec.Start(StageList)
		sp.End()
	}
}
