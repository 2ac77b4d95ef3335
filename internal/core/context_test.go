package core

import (
	"context"
	"sync/atomic"
	"testing"

	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/stats"
)

func ctxTestGraph(t testing.TB, n int, m int64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, m, stats.NewRNGFromSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestListCtxMatchesListOriented: ListCtx is Prepare followed by
// ListOriented, with Stats bitwise identical to a serial listing.Run on
// the prepared orientation.
func TestListCtxMatchesListOriented(t *testing.T) {
	g := ctxTestGraph(t, 1500, 15000)
	cfg := Config{Method: listing.E1, Order: order.KindDescending, Workers: 3}
	o, err := Prepare(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := listing.Run(o, cfg.Method, nil)
	got, err := ListCtx(context.Background(), g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	oriented, err := ListOriented(context.Background(), o, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want || oriented.Stats != want {
		t.Fatalf("ListCtx stats %+v, ListOriented stats %+v, listing.Run %+v", got.Stats, oriented.Stats, want)
	}
}

func TestListCtxCancelledReturnsPartial(t *testing.T) {
	g := ctxTestGraph(t, 3000, 40000)
	cfg := Config{Method: listing.E1, Order: order.KindDescending}
	res, err := ListCtx(context.Background(), g, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Triangles
	if total < 10 {
		t.Fatalf("test graph too sparse: %d triangles", total)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	res, err = ListCtx(ctx, g, cfg, func(x, y, z int32) {
		if atomic.AddInt64(&seen, 1) == 4 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Triangles != seen {
		t.Fatalf("partial result reports %d triangles, visitor saw %d", res.Triangles, seen)
	}
	if res.Triangles >= total {
		t.Fatalf("cancelled sweep still listed all %d triangles", total)
	}
}

func TestListCtxExpiredBeforeSweep(t *testing.T) {
	g := ctxTestGraph(t, 100, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ListCtx(ctx, g, Config{Method: listing.T1, Order: order.KindDescending}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Triangles != 0 {
		t.Fatalf("expired context still listed %d triangles", res.Triangles)
	}
}
