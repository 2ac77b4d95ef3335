package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"trilist/internal/listing"
	"trilist/internal/order"
	"trilist/internal/testkit"
)

// k4 has 4 triangles.
const k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

// erGraphText renders a seeded Erdős–Rényi graph as an edge list.
type testEnv struct {
	srv *Server
	ts  *httptest.Server
}

func newTestEnv(t testing.TB, opts Options) *testEnv {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		ts.Close()
	})
	return &testEnv{srv: srv, ts: ts}
}

func (e *testEnv) do(t testing.TB, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (e *testEnv) register(t testing.TB, body []byte) graphInfo {
	t.Helper()
	code, out := e.do(t, "POST", "/v1/graphs", body)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("register: status %d: %s", code, out)
	}
	var gi graphInfo
	if err := json.Unmarshal(out, &gi); err != nil {
		t.Fatal(err)
	}
	return gi
}

func (e *testEnv) postJob(t testing.TB, spec JobSpec) (int, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := e.do(t, "POST", "/v1/jobs", body)
	var v JobView
	if code == http.StatusOK || code == http.StatusAccepted {
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatalf("bad job JSON: %v: %s", err, out)
		}
	}
	return code, v
}

func (e *testEnv) getJob(t testing.TB, id string) JobView {
	t.Helper()
	code, out := e.do(t, "GET", "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("get job %s: status %d: %s", id, code, out)
	}
	var v JobView
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func (e *testEnv) metricsText(t testing.TB) string {
	t.Helper()
	code, out := e.do(t, "GET", "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	return string(out)
}

// metricValue extracts one sample value line from the exposition text.
func metricValue(t testing.TB, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

func TestRegisterGraphAndContentHashDedup(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, []byte(k4))
	if gi.Nodes != 4 || gi.Edges != 6 || gi.Cached {
		t.Fatalf("bad first registration: %+v", gi)
	}
	// Graph identity is the full sha256 digest; a truncated hash would
	// be open to birthday-collision impersonation.
	if len(gi.ID) != len("sha256:")+64 {
		t.Fatalf("graph id %q is not a full sha256 digest", gi.ID)
	}
	gi2 := e.register(t, []byte(k4))
	if gi2.ID != gi.ID || !gi2.Cached {
		t.Fatalf("re-registration not served from cache: %+v", gi2)
	}
	// Malformed body is a 400, not a registration.
	code, _ := e.do(t, "POST", "/v1/graphs", []byte("0 zebra\n"))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed graph: status %d, want 400", code)
	}
	// Self-loops are stripped (SNAP ingest semantics), not rejected:
	// "0 0" is a valid 1-node, 0-edge graph.
	code, _ = e.do(t, "POST", "/v1/graphs", []byte("0 0\n"))
	if code != http.StatusCreated {
		t.Fatalf("self-loop graph: status %d, want 201", code)
	}
	// A body in the retired TRICSR binary format is a 400 that names
	// the format and its replacement, sniffed or pinned.
	tricsr := []byte("TRICSR\x00\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")
	for _, path := range []string{"/v1/graphs", "/v1/graphs?format=snap", "/v1/graphs?format=csr"} {
		code, body := e.do(t, "POST", path, tricsr)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "retired TRICSR") ||
			!strings.Contains(string(body), "gengraph -format csr") {
			t.Fatalf("POST %s with a TRICSR body: status %d, body %s", path, code, body)
		}
	}
	if code, _ := e.do(t, "POST", "/v1/graphs?format=binary", tricsr); code != http.StatusBadRequest {
		t.Fatalf("format=binary: status %d, want 400", code)
	}
}

// TestRegisterGraphBodyErrors pins the status of a body that cannot be
// read whole: an oversize body is a 413, while a truncated or aborted
// one is the client's malformed request, a 400.
func TestRegisterGraphBodyErrors(t *testing.T) {
	e := newTestEnv(t, Options{MaxUploadBytes: 8})
	if code, body := e.do(t, "POST", "/v1/graphs", []byte(k4)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413: %s", code, body)
	}
	for _, cut := range []error{io.ErrUnexpectedEOF, errors.New("connection reset by peer")} {
		req := httptest.NewRequest("POST", "/v1/graphs", io.MultiReader(strings.NewReader("0 1\n"), iotest.ErrReader(cut)))
		rec := httptest.NewRecorder()
		e.srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body cut by %q: status %d, want 400: %s", cut, rec.Code, rec.Body)
		}
	}
}

func TestCountJobLifecycleAndOrientationCache(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, []byte(k4))

	code, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("job status code %d", code)
	}
	if v.Status != "done" || v.Triangles != 4 || v.CacheHit {
		t.Fatalf("first job: %+v", v)
	}
	// Same graph + order: the second job must hit the orientation cache.
	_, v2 := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if v2.Status != "done" || v2.Triangles != 4 || !v2.CacheHit {
		t.Fatalf("second job should be a cache hit: %+v", v2)
	}
	text := e.metricsText(t)
	if hits := metricValue(t, text, "trid_graph_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if done := metricValue(t, text, "trid_jobs_completed_total"); done != 2 {
		t.Fatalf("jobs completed = %d, want 2", done)
	}
	if tri := metricValue(t, text, "trid_triangles_listed_total"); tri != 8 {
		t.Fatalf("triangles listed = %d, want 8", tri)
	}
	if !strings.Contains(text, `trid_job_duration_seconds_count{method="E1"} 2`) {
		t.Fatalf("per-method latency histogram missing:\n%s", text)
	}
}

// TestJobResultsWorkerCountInvariant: count and list jobs give the
// serial job's triangles and model ops at workers 2 and 8, and a list
// job's triangle set (sorted; the parallel sweep interleaves blocks)
// equals the serial one. The graph spans nine 512-anchor sweep blocks,
// so all 8 workers get blocks, and GOMAXPROCS is raised to 8 for the
// test so trid's GOMAXPROCS cap leaves workers=8 intact on small hosts.
func TestJobResultsWorkerCountInvariant(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 8 {
		runtime.GOMAXPROCS(8)
		defer runtime.GOMAXPROCS(prev)
	}
	e := newTestEnv(t, Options{})
	gi := e.register(t, testkit.ERGraphText(t, 4608, 40000, 3))
	if gi.Nodes < 8*512 {
		t.Fatalf("graph has %d nodes, fewer than 8 sweep blocks", gi.Nodes)
	}
	sorted := func(v JobView) [][3]int32 {
		tris := slices.Clone(v.TriangleList)
		slices.SortFunc(tris, func(a, b [3]int32) int {
			return slices.Compare(a[:], b[:])
		})
		return tris
	}
	for _, mode := range []string{"count", "list"} {
		var ref JobView
		for i, workers := range []int{1, 2, 8} {
			_, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "T1", Mode: mode, Workers: workers, Limit: 100000, Wait: true})
			if v.Status != "done" || v.Truncated || v.Workers != workers {
				t.Fatalf("%s workers=%d: %+v", mode, workers, v)
			}
			if i == 0 {
				ref = v
				if ref.Triangles == 0 {
					t.Fatal("test graph has no triangles")
				}
				continue
			}
			if v.Triangles != ref.Triangles || v.ModelOps != ref.ModelOps {
				t.Fatalf("%s workers=%d: (%d, %d) != serial (%d, %d)",
					mode, workers, v.Triangles, v.ModelOps, ref.Triangles, ref.ModelOps)
			}
			if mode == "list" && !slices.Equal(sorted(v), sorted(ref)) {
				t.Fatalf("list workers=%d: sorted triangle_list differs from the serial job's", workers)
			}
		}
		if mode == "list" && int64(len(ref.TriangleList)) != ref.Triangles {
			t.Fatalf("serial list job carries %d of %d triangles", len(ref.TriangleList), ref.Triangles)
		}
	}
}

func TestListJobLimitTruncatesSweep(t *testing.T) {
	e := newTestEnv(t, Options{})
	// The graph must span several cancellation blocks (512 anchors each)
	// for the limit-triggered cancel to stop the sweep mid-flight.
	gi := e.register(t, testkit.ERGraphText(t, 4096, 40000, 3))
	_, full := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if full.Triangles < 100 {
		t.Fatalf("test graph too sparse: %d triangles", full.Triangles)
	}
	_, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Mode: "list", Limit: 5, Wait: true})
	if v.Status != "done" || !v.Truncated {
		t.Fatalf("limited list job: %+v", v)
	}
	if len(v.TriangleList) != 5 {
		t.Fatalf("list carries %d triangles, want 5", len(v.TriangleList))
	}
	if v.Triangles >= full.Triangles {
		t.Fatalf("limited sweep still listed everything (%d >= %d)", v.Triangles, full.Triangles)
	}
	// An unlimited list job on a small graph returns the whole set.
	giK4 := e.register(t, []byte(k4))
	_, all := e.postJob(t, JobSpec{Graph: giK4.ID, Mode: "list", Wait: true})
	if all.Truncated || len(all.TriangleList) != 4 {
		t.Fatalf("unlimited list job: %+v", all)
	}
}

// TestListJobDefaultWorkersIsSerial: a list job with workers omitted
// runs the serial sweep, so its limit returns a prefix of the method's
// canonical sequence — listing.Run's on the same orientation. The graph
// spans several sweep blocks, which a parallel sweep would interleave.
func TestListJobDefaultWorkersIsSerial(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, testkit.ERGraphText(t, 4096, 40000, 5))
	const limit = 200
	_, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Mode: "list", Limit: limit, Wait: true})
	if v.Status != "done" || !v.Truncated || len(v.TriangleList) != limit {
		t.Fatalf("list job: status %s truncated %v, %d triangles", v.Status, v.Truncated, len(v.TriangleList))
	}
	o, _, err := e.srv.reg.Oriented(gi.ID, order.KindDescending, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]int32
	listing.Run(o, listing.E1, func(x, y, z int32) {
		if len(want) < limit {
			want = append(want, [3]int32{x, y, z})
		}
	})
	if !slices.Equal(v.TriangleList, want) {
		t.Fatalf("workers omitted: triangle_list is not the serial sequence's first %d triangles", limit)
	}
}

// TestCancelAndQueueTimeout drives the two cancellation paths
// deterministically with the job-start hook: an in-flight job cancelled
// by DELETE, and a queued job whose deadline expires before a worker
// frees up.
func TestCancelAndQueueTimeout(t *testing.T) {
	release := make(chan struct{})
	testHookJobStart = func(*Job) { <-release }
	t.Cleanup(func() { testHookJobStart = nil }) // after the env cleanup drains the pool

	e := newTestEnv(t, Options{Workers: 1, QueueDepth: 8})
	gi := e.register(t, []byte(k4))

	// jobA occupies the lone worker, blocked in the hook.
	codeA, vA := e.postJob(t, JobSpec{Graph: gi.ID})
	if codeA != http.StatusAccepted {
		t.Fatalf("jobA status code %d", codeA)
	}
	waitStatus(t, e, vA.ID, "running")

	// jobB waits in the queue with a 20ms end-to-end budget.
	_, vB := e.postJob(t, JobSpec{Graph: gi.ID, TimeoutMS: 20})

	// DELETE the in-flight jobA, then let its deadline-checked sweep
	// observe the cancellation.
	if code, _ := e.do(t, "DELETE", "/v1/jobs/"+vA.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel jobA: status %d", code)
	}
	time.Sleep(60 * time.Millisecond) // jobB's queue deadline expires
	close(release)

	waitDone(t, e, vA.ID)
	waitDone(t, e, vB.ID)
	a, b := e.getJob(t, vA.ID), e.getJob(t, vB.ID)
	if a.Status != "cancelled" {
		t.Fatalf("jobA = %+v, want cancelled", a)
	}
	if b.Status != "cancelled" || b.Error != "deadline exceeded" {
		t.Fatalf("jobB = %+v, want cancelled/deadline exceeded", b)
	}
	text := e.metricsText(t)
	if c := metricValue(t, text, "trid_jobs_cancelled_total"); c != 2 {
		t.Fatalf("cancelled = %d, want 2", c)
	}
}

// TestTimeoutBeyondDurationRejected: a timeout_ms whose nanoseconds do
// not fit in a time.Duration is a 400, as a negative one is; it must not
// wrap to a negative deadline that cancels the job at once. The largest
// bound that fits still runs the job.
func TestTimeoutBeyondDurationRejected(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, []byte(k4))
	for _, ms := range []string{"1e13", "9.3e12", "1e300"} {
		body := fmt.Sprintf(`{"graph":%q,"timeout_ms":%s,"wait":true}`, gi.ID, ms)
		code, out := e.do(t, "POST", "/v1/jobs", []byte(body))
		var resp struct{ Error string }
		if err := json.Unmarshal(out, &resp); err != nil || code != http.StatusBadRequest ||
			!strings.Contains(resp.Error, "timeout_ms") {
			t.Errorf("timeout_ms %s: status %d body %s, want 400 naming timeout_ms", ms, code, out)
		}
	}
	code, v := e.postJob(t, JobSpec{Graph: gi.ID, TimeoutMS: 9e12, Wait: true})
	if code != http.StatusOK || v.Status != "done" || v.Triangles != 4 {
		t.Fatalf("timeout_ms 9e12: status %d, job %+v; want done with 4 triangles", code, v)
	}
}

func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	testHookJobStart = func(*Job) { <-release }
	t.Cleanup(func() { testHookJobStart = nil }) // after the env cleanup drains the pool

	e := newTestEnv(t, Options{Workers: 1, QueueDepth: 1})
	gi := e.register(t, []byte(k4))
	_, vA := e.postJob(t, JobSpec{Graph: gi.ID}) // occupies the worker
	waitStatus(t, e, vA.ID, "running")
	if code, _ := e.postJob(t, JobSpec{Graph: gi.ID}); code != http.StatusAccepted {
		t.Fatalf("queue slot: status %d", code)
	}
	code, _ := e.postJob(t, JobSpec{Graph: gi.ID})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission: status %d, want 503", code)
	}
	text := e.metricsText(t)
	if rej := metricValue(t, text, "trid_jobs_rejected_total"); rej != 1 {
		t.Fatalf("rejected = %d, want 1", rej)
	}
	close(release)
}

func TestGracefulShutdownDrainsQueue(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 2})
	gi := e.register(t, testkit.ERGraphText(t, 300, 2000, 4))
	var ids []string
	for i := 0; i < 6; i++ {
		code, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1"})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every accepted job drained to completion.
	for _, id := range ids {
		if v := e.getJob(t, id); v.Status != "done" {
			t.Fatalf("job %s = %s after drain, want done", id, v.Status)
		}
	}
	// New work is refused; health reports draining.
	if code, _ := e.postJob(t, JobSpec{Graph: gi.ID}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown job: status %d, want 503", code)
	}
	if code, _ := e.do(t, "POST", "/v1/graphs", []byte(k4)); code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown graph: status %d, want 503", code)
	}
	if code, _ := e.do(t, "GET", "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", code)
	}
	// Results remain readable after the drain (checked above via getJob).
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	release := make(chan struct{})
	testHookJobStart = func(*Job) { <-release }
	t.Cleanup(func() { testHookJobStart = nil }) // after the env cleanup drains the pool

	e := newTestEnv(t, Options{Workers: 1})
	gi := e.register(t, []byte(k4))
	_, v := e.postJob(t, JobSpec{Graph: gi.ID})
	waitStatus(t, e, v.ID, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- e.srv.Shutdown(ctx) }()
	// Shutdown can't finish while the hook blocks; its deadline forces
	// cancellation of the in-flight job. Unblock the hook afterwards so
	// the worker can observe it.
	time.Sleep(80 * time.Millisecond)
	close(release)
	if err := <-errc; err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
	waitDone(t, e, v.ID)
	if got := e.getJob(t, v.ID); got.Status != "cancelled" {
		t.Fatalf("in-flight job after forced shutdown = %s, want cancelled", got.Status)
	}
}

func TestJobErrorPaths(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, []byte(k4))
	cases := []struct {
		spec JobSpec
		want int
	}{
		{JobSpec{Graph: "sha256:nope"}, http.StatusNotFound},
		{JobSpec{Graph: gi.ID, Method: "T9"}, http.StatusBadRequest},
		{JobSpec{Graph: gi.ID, Order: "zigzag"}, http.StatusBadRequest},
		{JobSpec{Graph: gi.ID, Mode: "stream"}, http.StatusBadRequest},
		{JobSpec{Graph: gi.ID, TimeoutMS: -1}, http.StatusBadRequest},
		{JobSpec{Graph: gi.ID, Workers: -2}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _ := e.postJob(t, c.spec); code != c.want {
			t.Fatalf("spec %+v: status %d, want %d", c.spec, code, c.want)
		}
	}
	if code, _ := e.do(t, "POST", "/v1/jobs", []byte(`{"graph":`)); code != http.StatusBadRequest {
		t.Fatal("malformed JSON accepted")
	}
	if code, _ := e.do(t, "GET", "/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatal("unknown job id found")
	}
	if code, _ := e.do(t, "DELETE", "/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Fatal("unknown job id cancellable")
	}
}

func TestGraphListing(t *testing.T) {
	e := newTestEnv(t, Options{})
	e.register(t, []byte(k4))
	e.register(t, testkit.ERGraphText(t, 100, 300, 5))
	code, out := e.do(t, "GET", "/v1/graphs", nil)
	if code != http.StatusOK {
		t.Fatalf("list graphs: status %d", code)
	}
	var resp struct {
		Graphs     []Snapshot `json:"graphs"`
		CacheBytes int64      `json:"cache_bytes"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Graphs) != 2 || resp.CacheBytes <= 0 {
		t.Fatalf("graph listing: %+v", resp)
	}
	// MRU order: the ER graph registered last comes first.
	if resp.Graphs[0].Nodes != 100 {
		t.Fatalf("not MRU-ordered: %+v", resp.Graphs)
	}
}

func waitStatus(t testing.TB, e *testEnv, id, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v := e.getJob(t, id); v.Status == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
}

func waitDone(t testing.TB, e *testEnv, id string) {
	t.Helper()
	j, ok := e.srv.jobs.Get(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s never finished", id)
	}
}
