package listing

import (
	"context"
	"slices"
	"testing"

	"trilist/internal/obsv"
	"trilist/internal/order"
)

// TestRecorderInvariance is the observability contract at the listing
// layer: attaching a recorder changes no observable output. For every
// method × worker count, Stats must be bitwise identical to the
// nil-recorder run and the triangle set must match exactly.
func TestRecorderInvariance(t *testing.T) {
	g := randomTestGraph(t, 7, 300, 3000)
	o := orientBy(t, g, order.KindDescending, 1)
	for _, m := range []Method{T1, T2, E1, E4, L2} {
		for _, workers := range []int{1, 3} {
			bare := RunParallel(o, m, workers, nil)
			rec := obsv.NewRecorder()
			tris, instrumented := sortedSequence(o, m, workers, WithRecorder(rec))
			if instrumented != bare {
				t.Fatalf("%v workers=%d: recorder changed Stats: %+v != %+v",
					m, workers, instrumented, bare)
			}
			ref := sortedTriangles(func() map[triKey]bool {
				s, _ := collect(o, m)
				return s
			}())
			if !slices.Equal(tris, ref) {
				t.Fatalf("%v workers=%d: recorder run reported %d triangles, want the %d of a bare run",
					m, workers, len(tris), len(ref))
			}
			// The recorder itself saw exactly one list span.
			if st := rec.Snapshot()[obsv.StageList]; st.Count != 1 {
				t.Fatalf("%v workers=%d: %d list spans, want 1", m, workers, st.Count)
			}
		}
	}
}

// TestNilRecorderOptionZeroOverhead proves the satellite claim: passing
// WithRecorder(nil) adds zero allocations per op to listing.Run
// compared with the bare call, for a hash-probing and a scanning
// method.
func TestNilRecorderOptionZeroOverhead(t *testing.T) {
	g := randomTestGraph(t, 5, 120, 900)
	o := orientBy(t, g, order.KindDescending, 1)
	recOpt := WithRecorder(nil)
	for _, m := range []Method{T1, E1} {
		// Warm the arena pools so sync.Pool refills don't alias
		// as option overhead.
		Run(o, m, nil)
		Run(o, m, nil, recOpt)
		bare := testing.AllocsPerRun(50, func() { Run(o, m, nil) })
		with := testing.AllocsPerRun(50, func() { Run(o, m, nil, recOpt) })
		if with > bare {
			t.Errorf("%v: nil-recorder run = %v allocs/op, bare = %v (want no overhead)",
				m, with, bare)
		}
	}
}

// BenchmarkNilRecorderOverhead times the sweep with and without the
// nil-recorder option; allocs/op must match (the benchmark-regression
// harness watches wall time).
func BenchmarkNilRecorderOverhead(b *testing.B) {
	g := randomTestGraph(b, 5, 2000, 40000)
	o := orientBy(b, g, order.KindDescending, 1)
	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Run(o, E1, nil)
		}
	})
	recOpt := WithRecorder(nil)
	b.Run("nil-recorder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Run(o, E1, nil, recOpt)
		}
	})
}

// TestRecorderCancelledSweepClosesSpan: a sweep cut short by its
// context still closes the list span, so per-stage metrics of
// cancelled jobs stay meaningful.
func TestRecorderCancelledSweepClosesSpan(t *testing.T) {
	g := randomTestGraph(t, 11, 2000, 30000)
	o := orientBy(t, g, order.KindDescending, 1)
	rec := obsv.NewRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the first visit; whether the checkpoint fires
	// before the sweep drains is graph-dependent, but the span must
	// close either way.
	_, _ = RunCtx(ctx, o, E1, func(x, y, z int32) { cancel() }, WithRecorder(rec))
	if st := rec.Snapshot()[obsv.StageList]; st.Count != 1 {
		t.Fatalf("list span count = %d, want 1", st.Count)
	}
}
