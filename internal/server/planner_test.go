package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

// TestPlannerExposition is the golden test for the three trid_planner_*
// families: deterministic observations must render exactly these
// exposition lines, including the ratio histogram's 1.0-bracketing
// buckets. The observed values 0.75 and 1.25 are dyadic, so the sum
// renders as an exact "2".
func TestPlannerExposition(t *testing.T) {
	m := newServerMetrics()
	m.plannerPlans.Inc()
	m.plannerPlans.Inc()
	m.plannerJobs.With("T1").Inc()
	m.plannerRatio.With("T1").Observe(0.75)
	m.plannerRatio.With("T1").Observe(1.25)

	var sb strings.Builder
	if err := m.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	if got := extractFamily(text, "trid_planner_plans_computed_total"); got != `# HELP trid_planner_plans_computed_total Query plans computed and memoized by the registry.
# TYPE trid_planner_plans_computed_total counter
trid_planner_plans_computed_total 2
` {
		t.Errorf("plans family mismatch:\n%s", got)
	}

	if got := extractFamily(text, "trid_planner_jobs_total"); got != `# HELP trid_planner_jobs_total Jobs whose method/order were chosen by the planner (method=auto).
# TYPE trid_planner_jobs_total counter
trid_planner_jobs_total{method="T1"} 1
` {
		t.Errorf("jobs family mismatch:\n%s", got)
	}

	want := `# HELP trid_planner_predicted_actual_ratio Predicted model cost divided by the executed sweep's actual model ops, per planner-chosen method. Buckets bracket 1.0: below = model underestimates, above = overestimates.
# TYPE trid_planner_predicted_actual_ratio histogram
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.1"} 0
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.25"} 0
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.5"} 0
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.75"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.9"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="0.95"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="1"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="1.05"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="1.1"} 1
trid_planner_predicted_actual_ratio_bucket{method="T1",le="1.25"} 2
trid_planner_predicted_actual_ratio_bucket{method="T1",le="1.5"} 2
trid_planner_predicted_actual_ratio_bucket{method="T1",le="2"} 2
trid_planner_predicted_actual_ratio_bucket{method="T1",le="4"} 2
trid_planner_predicted_actual_ratio_bucket{method="T1",le="10"} 2
trid_planner_predicted_actual_ratio_bucket{method="T1",le="+Inf"} 2
trid_planner_predicted_actual_ratio_sum{method="T1"} 2
trid_planner_predicted_actual_ratio_count{method="T1"} 2
`
	if got := extractFamily(text, "trid_planner_predicted_actual_ratio"); got != want {
		t.Errorf("ratio family mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// planView mirrors the /plan response shape for decoding in tests.
type planView struct {
	Graph  string `json:"graph"`
	Chosen struct {
		Method        string  `json:"method"`
		Order         string  `json:"order"`
		PredictedCost float64 `json:"predicted_cost"`
		PredictedNs   float64 `json:"predicted_ns"`
	} `json:"chosen"`
	Ranking []struct {
		Method      string  `json:"method"`
		Order       string  `json:"order"`
		PredictedNs float64 `json:"predicted_ns"`
	} `json:"ranking"`
	Fit struct {
		Nodes    int   `json:"nodes"`
		Edges    int64 `json:"edges"`
		Isolated int64 `json:"isolated_nodes"`
	} `json:"fit"`
}

func TestGraphPlanEndpoint(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 300, 2000, 5))

	code, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	if code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", code, out)
	}
	var pv planView
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatalf("bad plan JSON: %v: %s", err, out)
	}
	if pv.Graph != info.ID {
		t.Errorf("plan graph = %q, want %q", pv.Graph, info.ID)
	}
	if len(pv.Ranking) != 18*5 {
		t.Errorf("ranking has %d cells, want 90", len(pv.Ranking))
	}
	if pv.Chosen.Method == "" || pv.Chosen.Order == "" || pv.Chosen.PredictedCost <= 0 || pv.Chosen.PredictedNs <= 0 {
		t.Errorf("chosen incomplete: %+v", pv.Chosen)
	}
	// The ranking is ordered by predicted time, fastest first.
	for i := 1; i < len(pv.Ranking); i++ {
		if pv.Ranking[i].PredictedNs < pv.Ranking[i-1].PredictedNs {
			t.Fatalf("ranking out of order at %d: %+v after %+v", i, pv.Ranking[i], pv.Ranking[i-1])
		}
	}
	if pv.Fit.Nodes != 300 {
		t.Errorf("fit nodes = %d, want 300", pv.Fit.Nodes)
	}

	if code, _ := e.do(t, "GET", "/v1/graphs/sha256:nope/plan", nil); code != http.StatusNotFound {
		t.Errorf("unknown graph plan: status %d, want 404", code)
	}
}

// TestPlannerAutoJob: method=auto (and the empty default) resolves
// through the planner, executes its choice, and reports the planned_*
// and predicted-vs-actual fields; an explicit method reports none.
func TestPlannerAutoJob(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 300, 2000, 5))

	// The /plan preview and the auto job must agree on the choice.
	_, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	var pv planView
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatal(err)
	}

	for _, spec := range []JobSpec{
		{Graph: info.ID, Method: "auto", Wait: true},
		{Graph: info.ID, Wait: true}, // empty method defaults to auto
	} {
		code, jv := e.postJob(t, spec)
		if code != http.StatusOK || jv.Status != string(JobDone) {
			t.Fatalf("auto job: code=%d view=%+v", code, jv)
		}
		if jv.PlannedMethod != pv.Chosen.Method || jv.PlannedOrder != pv.Chosen.Order {
			t.Errorf("job executed %s+%s, plan chose %s+%s",
				jv.PlannedMethod, jv.PlannedOrder, pv.Chosen.Method, pv.Chosen.Order)
		}
		if jv.PredictedCost <= 0 || jv.ActualAdvWork <= 0 || jv.PredictedNs != pv.Chosen.PredictedNs {
			t.Errorf("planned job missing cost fields: %+v", jv)
		}
		// ER graphs are the model's home turf; a ratio far from 1 means
		// the prediction and the meter measure different things.
		if jv.PredictedActualRatio < 0.5 || jv.PredictedActualRatio > 2 {
			t.Errorf("predicted/actual ratio %v implausible", jv.PredictedActualRatio)
		}
	}

	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "E2", Wait: true})
	if code != http.StatusOK || jv.Status != string(JobDone) {
		t.Fatalf("explicit job: code=%d view=%+v", code, jv)
	}
	if jv.PlannedMethod != "" || jv.PredictedCost != 0 || jv.PredictedNs != 0 {
		t.Errorf("explicit-method job reports planner fields: %+v", jv)
	}

	text := e.metricsText(t)
	// Registration planned eagerly; the jobs reused the memoized plan.
	if got := metricValue(t, text, "trid_planner_plans_computed_total"); got != 1 {
		t.Errorf("plans computed = %d, want 1 (eager at registration, memoized after)", got)
	}
	jobs := extractFamily(text, "trid_planner_jobs_total")
	if !strings.Contains(jobs, `method="`+pv.Chosen.Method+`"} 2`) {
		t.Errorf("planner jobs counter missing both auto jobs:\n%s", jobs)
	}
	ratio := extractFamily(text, "trid_planner_predicted_actual_ratio")
	if !strings.Contains(ratio, `_count{method="`+pv.Chosen.Method+`"} 2`) {
		t.Errorf("ratio histogram missing observations:\n%s", ratio)
	}
}

// TestPlannerAutoLinearRunsLookup: on a linear-truncation Pareto(1.5)
// graph, method=auto runs L2/θ_D. It costs the same eq. (50) operations
// as T1/θ_D, but probes the per-worker stamp arena instead of a global
// arc hash set, so the time-priced plan prefers it. On a root-truncation
// graph it runs E1/θ_D, the one scanning-edge-iterator pick and so the
// one job path through the adaptive intersection. Each auto job must
// report exactly the triangles and model_ops of the explicit job named
// beside it, plus the plan's price in ns, and no planned kernel.
func TestPlannerAutoLinearRunsLookup(t *testing.T) {
	for _, tc := range []struct {
		trunc          degseq.Truncation
		method, equals string
	}{
		{degseq.LinearTruncation, "L2", "T1"},
		{degseq.RootTruncation, "E1", "E1"},
	} {
		g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.5), 10000, tc.trunc, stats.NewRNGFromSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		e := newTestEnv(t, Options{})
		info := e.register(t, buf.Bytes())

		code, auto := e.postJob(t, JobSpec{Graph: info.ID, Method: "auto", Wait: true})
		if code != http.StatusOK || auto.Status != string(JobDone) {
			t.Fatalf("%v auto job: code=%d view=%+v", tc.trunc, code, auto)
		}
		if auto.Method != tc.method || auto.Order != "descending" || auto.PlannedKernel != "" {
			t.Fatalf("%v: method=auto ran %s/%s (planned kernel %q), want %s/descending and none",
				tc.trunc, auto.Method, auto.Order, auto.PlannedKernel, tc.method)
		}
		if auto.PredictedNs <= 0 {
			t.Errorf("%v: auto job predicted_ns = %v, want > 0", tc.trunc, auto.PredictedNs)
		}
		code, ref := e.postJob(t, JobSpec{Graph: info.ID, Method: tc.equals, Order: "descending", Wait: true})
		if code != http.StatusOK || ref.Status != string(JobDone) {
			t.Fatalf("%v %s job: code=%d view=%+v", tc.trunc, tc.equals, code, ref)
		}
		if auto.Triangles != ref.Triangles || auto.ModelOps != ref.ModelOps {
			t.Errorf("%v: %s/θ_D found %d triangles in %d model ops, %s/θ_D %d in %d", tc.trunc,
				tc.method, auto.Triangles, auto.ModelOps, tc.equals, ref.Triangles, ref.ModelOps)
		}
	}
}

// TestJobKernelFieldRejected: jobs no longer choose an intersection
// kernel, and the strict job decoder turns a body that still names one
// into a 400 instead of silently ignoring it.
func TestJobKernelFieldRejected(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 120, 900, 6))
	for _, kern := range []string{"auto", "merge", "hybrid"} {
		body := []byte(`{"graph":"` + info.ID + `","method":"E1","kernel":"` + kern + `","wait":true}`)
		code, out := e.do(t, "POST", "/v1/jobs", body)
		if code != http.StatusBadRequest || !strings.Contains(string(out), `unknown field \"kernel\"`) {
			t.Errorf("kernel %q: status %d %s, want 400 naming the unknown field", kern, code, out)
		}
	}
	if code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "E1", Wait: true}); code != http.StatusOK || jv.Status != string(JobDone) {
		t.Fatalf("job without kernel: code=%d view=%+v", code, jv)
	}
}

// TestPlannerAutoOrderConstraint: an explicit order constrains the
// auto choice to that column; the degenerate order — the one column the
// model cannot price — is rejected, with explicit methods unaffected.
func TestPlannerAutoOrderConstraint(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, testkit.ERGraphText(t, 200, 1200, 9))

	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "auto", Order: "ascending", Wait: true})
	if code != http.StatusOK || jv.Status != string(JobDone) {
		t.Fatalf("auto+ascending: code=%d view=%+v", code, jv)
	}
	if jv.PlannedOrder != "ascending" {
		t.Errorf("constrained auto job ran order %q, want ascending", jv.PlannedOrder)
	}

	code, _ = e.postJob(t, JobSpec{Graph: info.ID, Method: "auto", Order: "degenerate", Wait: true})
	if code != http.StatusBadRequest {
		t.Errorf("auto+degenerate: status %d, want 400", code)
	}
	// Explicitly named methods may still use the degenerate order.
	code, jv = e.postJob(t, JobSpec{Graph: info.ID, Method: "T1", Order: "degenerate", Wait: true})
	if code != http.StatusOK || jv.Status != string(JobDone) {
		t.Errorf("T1+degenerate: code=%d view=%+v", code, jv)
	}
}
