package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/graph"
	"trilist/internal/testkit"
)

// BenchmarkServerCountJob measures the steady-state serving path: graph
// and orientation resident, each iteration paying HTTP decode + queue +
// one cache-hit sweep. This is the amortized regime the registry exists
// for.
func BenchmarkServerCountJob(b *testing.B) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	e := &testEnv{srv: srv, ts: ts}
	gi := e.register(b, testkit.ERGraphText(b, 2000, 20000, 9))
	// Warm the orientation cache so iterations measure sweeps, not setup.
	if _, v := e.postJob(b, JobSpec{Graph: gi.ID, Method: "E1", Wait: true}); v.Status != "done" {
		b.Fatalf("warmup job: %+v", v)
	}

	body, _ := json.Marshal(JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if v.Status != "done" || !v.CacheHit {
			b.Fatalf("iteration %d: %+v", i, v)
		}
	}
}

// BenchmarkRegisterGraph measures one cold registration through the
// handler: read and hash the body, parse it, build the CSR, plan. The
// body is a 10,000-node root-truncation Pareto(1.5) SNAP edge list, the
// shape of jobbench's cold-ingest graphs, behind a leading comment line
// that numbers the iteration, so that every registration misses the
// registry; the registry's budget holds only a few such graphs.
func BenchmarkRegisterGraph(b *testing.B) {
	var text bytes.Buffer
	text.WriteString("# 0000000000\n")
	if err := graph.WriteEdgeList(&text, testkit.ParetoGraph(b, 1.5, 10000, degseq.RootTruncation, 1)); err != nil {
		b.Fatal(err)
	}
	body := text.Bytes()
	srv := newTestEnv(b, Options{CacheBytes: 8 << 20}).srv
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(body[2:12], fmt.Sprintf("%010d", i))
		if rec := serve(srv, "/v1/graphs", body, true); rec.Code != http.StatusCreated {
			b.Fatalf("iteration %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
}
