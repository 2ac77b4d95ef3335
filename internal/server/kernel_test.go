package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"trilist/internal/listing"
)

func TestJobKernelSelectionAndMetrics(t *testing.T) {
	e := newTestEnv(t, Options{})
	gi := e.register(t, erGraphText(t, 120, 900, 6))

	// An unset kernel resolves to auto; every explicit kernel must report
	// the same triangle count (the whole point of the kernel layer).
	code, ref := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Wait: true})
	if code != http.StatusOK {
		t.Fatalf("job status %d", code)
	}
	if ref.Kernel != "auto" {
		t.Fatalf("default kernel = %q, want auto", ref.Kernel)
	}
	for _, kern := range []string{"merge", "gallop", "bitmap", "auto", "bits", "hybrid"} {
		code, v := e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Kernel: kern, Wait: true})
		if code != http.StatusOK {
			t.Fatalf("kernel %s: status %d", kern, code)
		}
		if v.Kernel != kern {
			t.Fatalf("kernel %s echoed as %q", kern, v.Kernel)
		}
		if v.Triangles != ref.Triangles || v.ModelOps != ref.ModelOps {
			t.Fatalf("kernel %s: %d triangles / %d model-ops, want %d / %d",
				kern, v.Triangles, v.ModelOps, ref.Triangles, ref.ModelOps)
		}
	}

	code, _ = e.postJob(t, JobSpec{Graph: gi.ID, Method: "E1", Kernel: "quantum"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown kernel accepted with status %d", code)
	}

	// Per-kernel counters: 2 auto jobs (default + explicit) and 1 each of
	// the rest; the duration histogram must expose the same labels.
	text := e.metricsText(t)
	for label, want := range map[string]int64{"auto": 2, "merge": 1, "gallop": 1, "bitmap": 1, "bits": 1, "hybrid": 1} {
		name := `trid_jobs_kernel_total{kernel="` + label + `"}`
		if got := metricValue(t, text, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		if !strings.Contains(text, `trid_kernel_duration_seconds_count{kernel="`+label+`"}`) {
			t.Errorf("kernel duration histogram missing label %q", label)
		}
	}
}

// TestKernelTierExposition is the golden test for the bit-tier metric
// families: deterministic observations must render exactly these
// exposition lines.
func TestKernelTierExposition(t *testing.T) {
	m := newServerMetrics()
	m.kernelCoreVertices.Set(1234)
	m.kernelTierTotal.With("core").Add(10)
	m.kernelTierTotal.With("fringe").Add(3)

	var sb strings.Builder
	if err := m.registry.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	if got := extractFamily(text, "trid_kernel_core_vertices"); got != `# HELP trid_kernel_core_vertices Vertices holding packed bit rows (degree ≥ τ) in the most recent bits/hybrid sweep.
# TYPE trid_kernel_core_vertices gauge
trid_kernel_core_vertices 1234
` {
		t.Errorf("core-vertices family mismatch:\n%s", got)
	}

	if got := extractFamily(text, "trid_kernel_tier_total"); got != `# HELP trid_kernel_tier_total Intersection windows executed by bits/hybrid sweeps, per tier (core = bit-parallel path, fringe = list fallback).
# TYPE trid_kernel_tier_total counter
trid_kernel_tier_total{tier="core"} 10
trid_kernel_tier_total{tier="fringe"} 3
` {
		t.Errorf("tier family mismatch:\n%s", got)
	}
}

// kernelPlanView mirrors the plan response's kernel object.
type kernelPlanView struct {
	Kernel        string  `json:"kernel"`
	CoreThreshold int32   `json:"core_threshold"`
	CoreVertices  int64   `json:"core_vertices"`
	RowBytes      int64   `json:"row_bytes"`
	CoreShare     float64 `json:"core_share"`
	Gain          float64 `json:"predicted_gain"`
}

// TestGraphPlanKernelView: /v1/graphs/{id}/plan carries the priced
// kernel choice, and its name round-trips through the job API's parser.
func TestGraphPlanKernelView(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, erGraphText(t, 300, 2000, 5))

	code, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	if code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", code, out)
	}
	var pv struct {
		Kernel kernelPlanView `json:"kernel"`
	}
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatalf("bad plan JSON: %v: %s", err, out)
	}
	if pv.Kernel.CoreThreshold < 1 {
		t.Errorf("plan kernel core_threshold = %d, want ≥ 1", pv.Kernel.CoreThreshold)
	}
	if _, err := listing.ParseKernel(pv.Kernel.Kernel); err != nil {
		t.Errorf("plan kernel %q does not parse: %v", pv.Kernel.Kernel, err)
	}
	// 300 nodes fit the row budget at τ=1, so every active vertex is
	// core, and a 5-word row undercuts a ≈13-probe list pair under the
	// checked-in costs: the bit tier is a clear win.
	if pv.Kernel.Kernel != "hybrid" {
		t.Errorf("plan kernel = %q (gain %v), want hybrid under the checked-in costs",
			pv.Kernel.Kernel, pv.Kernel.Gain)
	}
	if pv.Kernel.CoreVertices <= 0 || pv.Kernel.RowBytes <= 0 {
		t.Errorf("plan kernel economics empty: %+v", pv.Kernel)
	}
}

// TestKernelAutoResolution: kernel=auto on a planner-driven job resolves
// through the plan's priced choice iff the chosen method is a
// scanning-edge iterator; explicit kernel names execute as named and
// never report planned_kernel.
func TestKernelAutoResolution(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, erGraphText(t, 300, 2000, 5))

	_, out := e.do(t, "GET", "/v1/graphs/"+info.ID+"/plan", nil)
	var pv struct {
		Chosen struct {
			Method string `json:"method"`
		} `json:"chosen"`
		Kernel kernelPlanView `json:"kernel"`
	}
	if err := json.Unmarshal(out, &pv); err != nil {
		t.Fatal(err)
	}
	chosen, err := parseMethod(pv.Chosen.Method)
	if err != nil {
		t.Fatal(err)
	}

	// method=auto + kernel=auto (and the empty default): the kernel the
	// job runs is the plan's priced choice when the planner landed on a
	// scanning-edge iterator, the adaptive default otherwise.
	for _, spec := range []JobSpec{
		{Graph: info.ID, Wait: true},
		{Graph: info.ID, Kernel: "auto", Wait: true},
	} {
		code, jv := e.postJob(t, spec)
		if code != http.StatusOK || jv.Status != string(JobDone) {
			t.Fatalf("auto job: code=%d view=%+v", code, jv)
		}
		if chosen.Family() == listing.ScanningEdgeIterator {
			if jv.PlannedKernel == "" || jv.PlannedKernel != jv.Kernel {
				t.Errorf("SEI auto job: planned_kernel %q / kernel %q, want equal and set",
					jv.PlannedKernel, jv.Kernel)
			}
			if jv.Kernel != pv.Kernel.Kernel {
				t.Errorf("auto job ran kernel %q, plan priced %q", jv.Kernel, pv.Kernel.Kernel)
			}
		} else {
			if jv.PlannedKernel != "" || jv.Kernel != "auto" {
				t.Errorf("non-SEI auto job: planned_kernel %q kernel %q, want unresolved auto",
					jv.PlannedKernel, jv.Kernel)
			}
		}
	}

	// Explicit kernel names bypass pricing even on planner-driven jobs.
	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Kernel: "gallop", Wait: true})
	if code != http.StatusOK || jv.Kernel != "gallop" || jv.PlannedKernel != "" {
		t.Errorf("explicit gallop on auto method: code=%d kernel=%q planned_kernel=%q",
			code, jv.Kernel, jv.PlannedKernel)
	}
	// Explicit-method jobs never consult the planner, kernel included.
	code, jv = e.postJob(t, JobSpec{Graph: info.ID, Method: "E2", Wait: true})
	if code != http.StatusOK || jv.Kernel != "auto" || jv.PlannedKernel != "" {
		t.Errorf("explicit E2 + default kernel: code=%d kernel=%q planned_kernel=%q",
			code, jv.Kernel, jv.PlannedKernel)
	}
}

// TestKernelTierMetricsFromJob: a bit-parallel job feeds the tier
// meters — the core size gauge is set, windows land in the tier
// counters, and list-kernel jobs leave both untouched.
func TestKernelTierMetricsFromJob(t *testing.T) {
	e := newTestEnv(t, Options{})
	info := e.register(t, erGraphText(t, 300, 2000, 5))

	code, jv := e.postJob(t, JobSpec{Graph: info.ID, Method: "E2", Kernel: "bits", Wait: true})
	if code != http.StatusOK || jv.Status != string(JobDone) {
		t.Fatalf("bits job: code=%d view=%+v", code, jv)
	}
	if jv.Kernel != "bits" {
		t.Errorf("job kernel = %q, want bits", jv.Kernel)
	}

	text := e.metricsText(t)
	// Default τ puts every vertex with a remote list in the core on a
	// 300-node graph — far inside the 64 MiB row budget.
	if got := metricValue(t, text, "trid_kernel_core_vertices"); got <= 0 {
		t.Errorf("trid_kernel_core_vertices = %d, want > 0", got)
	}
	tiers := extractFamily(text, "trid_kernel_tier_total")
	if !strings.Contains(tiers, `tier="core"`) {
		t.Errorf("tier counter missing core samples:\n%s", tiers)
	}

	// A list-kernel job must leave the tier meters untouched.
	before := tiers
	if code, _ := e.postJob(t, JobSpec{Graph: info.ID, Method: "E2", Kernel: "merge", Wait: true}); code != http.StatusOK {
		t.Fatalf("merge job failed: %d", code)
	}
	if after := extractFamily(e.metricsText(t), "trid_kernel_tier_total"); after != before {
		t.Errorf("merge job moved tier counters:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}
