package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"trilist/internal/exec"
	"trilist/internal/testkit"
)

// TestExecMetricsExposition is the golden test for the trid_exec_*
// families: a deterministic event stream through the manager's executor
// hook must render exactly these exposition lines.
func TestExecMetricsExposition(t *testing.T) {
	mgr := &Manager{m: newServerMetrics()}
	hook := mgr.execEventHook()
	hook(exec.Event{Index: 0, Status: exec.StatusOK, Duration: 2 * time.Millisecond})
	hook(exec.Event{Index: 1, Status: exec.StatusOK, Duration: 200 * time.Millisecond})
	hook(exec.Event{Index: 2, Speculative: true, Status: exec.StatusReissued})
	hook(exec.Event{Index: 2, Speculative: true, Status: exec.StatusDuplicate})
	hook(exec.Event{Index: 3, Status: exec.StatusFailed})
	hook(exec.Event{Index: 4, Status: exec.StatusAbandoned})

	var sb strings.Builder
	if err := mgr.m.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	if got, want := extractFamily(text, "trid_exec_triples_total"), `# HELP trid_exec_triples_total Block-triple pass executions of partitioned jobs by outcome (ok, failed, duplicate, abandoned).
# TYPE trid_exec_triples_total counter
trid_exec_triples_total{status="abandoned"} 1
trid_exec_triples_total{status="duplicate"} 1
trid_exec_triples_total{status="failed"} 1
trid_exec_triples_total{status="ok"} 2
`; got != want {
		t.Errorf("triples exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if strings.Contains(text, "trid_exec_retries_total") {
		t.Error("retired trid_exec_retries_total family is still exposed")
	}
	if got, want := extractFamily(text, "trid_exec_stragglers_total"), `# HELP trid_exec_stragglers_total Speculative straggler re-issues of in-flight block-triple passes.
# TYPE trid_exec_stragglers_total counter
trid_exec_stragglers_total 1
`; got != want {
		t.Errorf("stragglers exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Only the two winning executions feed the duration histogram.
	if got, want := extractFamily(text, "trid_exec_triple_duration_seconds"), `# HELP trid_exec_triple_duration_seconds Wall-clock duration of winning block-triple pass executions.
# TYPE trid_exec_triple_duration_seconds histogram
trid_exec_triple_duration_seconds_bucket{le="0.0001"} 0
trid_exec_triple_duration_seconds_bucket{le="0.00025"} 0
trid_exec_triple_duration_seconds_bucket{le="0.0005"} 0
trid_exec_triple_duration_seconds_bucket{le="0.001"} 0
trid_exec_triple_duration_seconds_bucket{le="0.0025"} 1
trid_exec_triple_duration_seconds_bucket{le="0.005"} 1
trid_exec_triple_duration_seconds_bucket{le="0.01"} 1
trid_exec_triple_duration_seconds_bucket{le="0.025"} 1
trid_exec_triple_duration_seconds_bucket{le="0.05"} 1
trid_exec_triple_duration_seconds_bucket{le="0.1"} 1
trid_exec_triple_duration_seconds_bucket{le="0.25"} 2
trid_exec_triple_duration_seconds_bucket{le="0.5"} 2
trid_exec_triple_duration_seconds_bucket{le="1"} 2
trid_exec_triple_duration_seconds_bucket{le="2.5"} 2
trid_exec_triple_duration_seconds_bucket{le="5"} 2
trid_exec_triple_duration_seconds_bucket{le="10"} 2
trid_exec_triple_duration_seconds_bucket{le="25"} 2
trid_exec_triple_duration_seconds_bucket{le="50"} 2
trid_exec_triple_duration_seconds_bucket{le="100"} 2
trid_exec_triple_duration_seconds_bucket{le="+Inf"} 2
trid_exec_triple_duration_seconds_sum 0.202
trid_exec_triple_duration_seconds_count 2
`; got != want {
		t.Errorf("duration exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPartitionedJobEndToEnd submits a parts>1, workers>1 job over HTTP:
// it must agree with a one-pass sweep on the same graph, report the
// partition meters in its view, and feed the trid_exec_* metrics.
func TestPartitionedJobEndToEnd(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 300, 2400, 11))

	code, ref := e.postJob(t, JobSpec{Graph: info.ID, Method: "T1", Wait: true})
	if code != http.StatusOK || ref.Status != "done" {
		t.Fatalf("reference job: code=%d view=%+v", code, ref)
	}

	code, v := e.postJob(t, JobSpec{Graph: info.ID, Parts: 3, Workers: 4, Wait: true})
	if code != http.StatusOK {
		t.Fatalf("partitioned job: status %d", code)
	}
	if v.Status != "done" || v.Error != "" {
		t.Fatalf("partitioned job did not finish cleanly: %+v", v)
	}
	if v.Method != "E2" {
		t.Errorf("partitioned job resolved method %q, want E2", v.Method)
	}
	if v.Triangles != ref.Triangles {
		t.Errorf("partitioned count %d, in-memory sweep found %d", v.Triangles, ref.Triangles)
	}
	if v.Parts != 3 {
		t.Errorf("view parts = %d, want 3", v.Parts)
	}
	// P=3 label ranges sweep C(P+2,3) = 10 block triples.
	if v.Passes != 10 {
		t.Errorf("view passes = %d, want 10", v.Passes)
	}
	if v.IO == nil {
		t.Fatal("partitioned view missing io meters")
	}
	if v.IO.ArcsWritten != info.Edges {
		t.Errorf("io.arcs_written = %d, want one arc per edge = %d", v.IO.ArcsWritten, info.Edges)
	}
	if v.IO.BlockReads == 0 || v.IO.ArcsRead == 0 {
		t.Errorf("io read meters empty: %+v", *v.IO)
	}

	text := e.metricsText(t)
	if ok := metricValue(t, text, `trid_exec_triples_total{status="ok"}`); ok != v.Passes {
		t.Errorf("trid_exec_triples_total{status=ok} = %d, want one per committed pass = %d", ok, v.Passes)
	}
	if n := metricValue(t, text, "trid_jobs_completed_total"); n != 2 {
		t.Errorf("trid_jobs_completed_total = %d, want 2", n)
	}
	if !strings.Contains(text, "trid_exec_triple_duration_seconds_count") {
		t.Error("exec duration histogram missing from exposition")
	}
}

// TestPartitionedJobWorkerInvariance: the full job view payload that
// clients see — triangle list, cost meters, partition meters — is
// identical at workers 1 and 8, the HTTP-level restatement of the
// executor's determinism guarantee.
func TestPartitionedJobWorkerInvariance(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 250, 2000, 13))

	var base JobView
	for i, workers := range []int{1, 8} {
		code, v := e.postJob(t, JobSpec{Graph: info.ID, Mode: "list", Limit: 50000, Parts: 4, Workers: workers, Wait: true})
		if code != http.StatusOK || v.Status != "done" {
			t.Fatalf("workers=%d: code=%d view=%+v", workers, code, v)
		}
		if v.Truncated {
			t.Fatalf("workers=%d: list truncated, grow the limit", workers)
		}
		if i == 0 {
			base = v
			if base.Triangles == 0 {
				t.Fatal("test graph has no triangles")
			}
			continue
		}
		if v.Triangles != base.Triangles || v.ModelOps != base.ModelOps || v.Passes != base.Passes {
			t.Errorf("workers=%d meters diverge: %+v vs %+v", workers, v, base)
		}
		if *v.IO != *base.IO {
			t.Errorf("workers=%d io meters diverge: %+v vs %+v", workers, *v.IO, *base.IO)
		}
		if len(v.TriangleList) != len(base.TriangleList) {
			t.Fatalf("workers=%d listed %d triangles, serial %d", workers, len(v.TriangleList), len(base.TriangleList))
		}
		for k := range v.TriangleList {
			if v.TriangleList[k] != base.TriangleList[k] {
				t.Fatalf("workers=%d: triangle sequence diverges at %d: %v != %v",
					workers, k, v.TriangleList[k], base.TriangleList[k])
			}
		}
	}
}

// TestPartitionedJobValidation covers the Enqueue rules for parts:
// negative rejected, explicit method rejected, "auto" accepted (it
// resolves to the fixed E2 block sweep), oversized parts clamped.
func TestPartitionedJobValidation(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, []byte(k4))

	if code, _ := e.postJob(t, JobSpec{Graph: info.ID, Parts: -1}); code != http.StatusBadRequest {
		t.Errorf("negative parts: status %d, want 400", code)
	}
	if code, _ := e.postJob(t, JobSpec{Graph: info.ID, Parts: 2, Method: "T3"}); code != http.StatusBadRequest {
		t.Errorf("explicit method with parts: status %d, want 400", code)
	}

	code, v := e.postJob(t, JobSpec{Graph: info.ID, Parts: 2, Method: "auto", Wait: true})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("parts with method=auto: code=%d view=%+v", code, v)
	}
	if v.Method != "E2" || v.Order != "descending" || v.Parts != 2 {
		t.Errorf("partitioned auto job resolved %+v, want E2/descending/parts=2", v)
	}
	if v.Triangles != 4 {
		t.Errorf("K4 has 4 triangles, job found %d", v.Triangles)
	}

	code, v = e.postJob(t, JobSpec{Graph: info.ID, Parts: MaxParts + 5, Wait: true})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("oversized parts: code=%d view=%+v", code, v)
	}
	if v.Parts != MaxParts {
		t.Errorf("parts not clamped: %d, want %d", v.Parts, MaxParts)
	}
	if v.Triangles != 4 {
		t.Errorf("clamped job found %d triangles, want 4", v.Triangles)
	}
}

// TestQueuedJobFailsWhenGraphEvicted: a job whose graph is evicted
// while the job waits in the queue must surface as failed with the
// cause — not hang, not report done — and the failure meter must move.
func TestQueuedJobFailsWhenGraphEvicted(t *testing.T) {
	release := make(chan struct{})
	testHookJobStart = func(*Job) { <-release }
	t.Cleanup(func() { testHookJobStart = nil }) // after the env cleanup drains the pool

	e := newTestEnv(t, Options{Workers: 1, CacheBytes: 1 << 10})
	victim := e.register(t, []byte(k4))

	// jobA occupies the lone worker, blocked in the hook; jobB waits in
	// the queue behind it.
	_, vA := e.postJob(t, JobSpec{Graph: victim.ID, Method: "E1"})
	waitStatus(t, e, vA.ID, "running")
	_, vB := e.postJob(t, JobSpec{Graph: victim.ID, Method: "E1"})
	if v := e.getJob(t, vB.ID); v.Status != string(JobQueued) {
		t.Fatalf("jobB = %+v, want queued", v)
	}
	// Cancel jobA so that only jobB meets the missing graph.
	if code, _ := e.do(t, "DELETE", "/v1/jobs/"+vA.ID, nil); code != http.StatusOK {
		t.Fatalf("cancel jobA: status %d", code)
	}
	// A graph larger than the whole budget evicts every other entry.
	e.register(t, testkit.ERGraphText(t, 300, 2000, 5))
	if _, ok := e.srv.reg.Get(victim.ID); ok {
		t.Fatal("setup: the first graph is still resident")
	}
	close(release)

	waitDone(t, e, vB.ID)
	v := e.getJob(t, vB.ID)
	if v.Status != string(JobFailed) || v.Error == "" {
		t.Fatalf("job view %+v, want failed with an error message", v)
	}
	if n := metricValue(t, e.metricsText(t), "trid_jobs_failed_total"); n != 1 {
		t.Errorf("trid_jobs_failed_total = %d, want 1", n)
	}
}
