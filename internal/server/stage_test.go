package server

import (
	"strings"
	"testing"
	"time"

	"trilist/internal/testkit"
)

// extractFamily returns the exposition block of one metric family
// (HELP/TYPE plus every sample line), preserving order.
func extractFamily(text, name string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.Contains(line, name) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestStageDurationExposition is the golden test for the new
// trid_stage_duration_seconds family: deterministic observations must
// render exactly these exposition lines (one histogram series per
// stage, series sorted by label, cumulative buckets).
func TestStageDurationExposition(t *testing.T) {
	m := newServerMetrics()
	m.stageDuration.With("list").Observe(0.002)
	m.stageDuration.With("list").Observe(0.2)
	m.stageDuration.With("rank").Observe(0.0002)

	var sb strings.Builder
	if err := m.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := extractFamily(sb.String(), "trid_stage_duration_seconds")

	want := `# HELP trid_stage_duration_seconds Wall-clock duration per pipeline stage (rank, orient on cache misses; list every job).
# TYPE trid_stage_duration_seconds histogram
trid_stage_duration_seconds_bucket{stage="list",le="0.0001"} 0
trid_stage_duration_seconds_bucket{stage="list",le="0.00025"} 0
trid_stage_duration_seconds_bucket{stage="list",le="0.0005"} 0
trid_stage_duration_seconds_bucket{stage="list",le="0.001"} 0
trid_stage_duration_seconds_bucket{stage="list",le="0.0025"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.005"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.01"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.025"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.05"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.1"} 1
trid_stage_duration_seconds_bucket{stage="list",le="0.25"} 2
trid_stage_duration_seconds_bucket{stage="list",le="0.5"} 2
trid_stage_duration_seconds_bucket{stage="list",le="1"} 2
trid_stage_duration_seconds_bucket{stage="list",le="2.5"} 2
trid_stage_duration_seconds_bucket{stage="list",le="5"} 2
trid_stage_duration_seconds_bucket{stage="list",le="10"} 2
trid_stage_duration_seconds_bucket{stage="list",le="25"} 2
trid_stage_duration_seconds_bucket{stage="list",le="50"} 2
trid_stage_duration_seconds_bucket{stage="list",le="100"} 2
trid_stage_duration_seconds_bucket{stage="list",le="+Inf"} 2
trid_stage_duration_seconds_sum{stage="list"} 0.202
trid_stage_duration_seconds_count{stage="list"} 2
trid_stage_duration_seconds_bucket{stage="rank",le="0.0001"} 0
trid_stage_duration_seconds_bucket{stage="rank",le="0.00025"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.0005"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.001"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.0025"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.005"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.01"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.025"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.05"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.1"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.25"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="0.5"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="1"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="2.5"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="5"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="10"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="25"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="50"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="100"} 1
trid_stage_duration_seconds_bucket{stage="rank",le="+Inf"} 1
trid_stage_duration_seconds_sum{stage="rank"} 0.0002
trid_stage_duration_seconds_count{stage="rank"} 1
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestJobStageBreakdown runs real jobs end to end and checks the
// stage_ms view: a cache-miss job pays rank+orient+list, a cache-hit
// job on the same (graph, order) only list, and the stage histograms
// show up on /metrics with matching sample counts.
func TestJobStageBreakdown(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 400, 3000, 7))

	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "E1", Wait: true})
	if code != 200 || jv.Status != string(JobDone) {
		t.Fatalf("miss job: code=%d view=%+v", code, jv)
	}
	for _, stage := range []string{"rank", "orient", "list"} {
		if _, ok := jv.StageMS[stage]; !ok {
			t.Errorf("cache-miss job missing stage %q in %v", stage, jv.StageMS)
		}
	}

	_, jv2 := e.postJob(t, JobSpec{Graph: info.ID, Method: "E1", Wait: true})
	if !jv2.CacheHit {
		t.Fatalf("second job should hit the orientation cache: %+v", jv2)
	}
	if _, ok := jv2.StageMS["list"]; !ok {
		t.Errorf("cache-hit job missing list stage: %v", jv2.StageMS)
	}
	if _, ok := jv2.StageMS["rank"]; ok {
		t.Errorf("cache-hit job must not report a rank stage: %v", jv2.StageMS)
	}

	text := e.metricsText(t)
	if got := metricValue(t, text, `trid_stage_duration_seconds_count{stage="list"}`); got != 2 {
		t.Errorf("list stage histogram count = %d, want 2", got)
	}
	if got := metricValue(t, text, `trid_stage_duration_seconds_count{stage="rank"}`); got != 1 {
		t.Errorf("rank stage histogram count = %d, want 1", got)
	}
	if got := metricValue(t, text, `trid_stage_duration_seconds_count{stage="orient"}`); got != 1 {
		t.Errorf("orient stage histogram count = %d, want 1", got)
	}
}

// TestCancelledJobStageBreakdown: a job stopped by its deadline still
// closes its spans, so the view reports the partial list duration.
func TestCancelledJobStageBreakdown(t *testing.T) {
	e := newTestEnv(t, Options{Workers: 1})
	info := e.register(t, testkit.ERGraphText(t, 3000, 60000, 3))

	// Block the worker inside the job just long enough for the timeout
	// to expire before the sweep starts its first block.
	testHookJobStart = func(j *Job) { time.Sleep(20 * time.Millisecond) }
	defer func() { testHookJobStart = nil }()

	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "E1", TimeoutMS: 5, Wait: true})
	if code != 200 {
		t.Fatalf("post: code=%d", code)
	}
	if jv.Status != string(JobCancelled) {
		t.Skipf("job finished before the deadline on this machine: %+v", jv)
	}
	// The job was cancelled while queued-to-running; whatever stages ran
	// must have closed spans (possibly none if the deadline hit before
	// the registry call — both are valid; the invariant is no panic and
	// a consistent view).
	for stage, ms := range jv.StageMS {
		if ms < 0 {
			t.Errorf("stage %q has negative duration %v", stage, ms)
		}
	}
}
