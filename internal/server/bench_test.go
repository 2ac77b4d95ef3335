package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
