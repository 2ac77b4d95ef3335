package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tridBin is built once for all tests from the module under test.
var tridBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jobbench-test")
	if err != nil {
		panic(err)
	}
	tridBin = filepath.Join(dir, "trid")
	build := exec.Command("go", "build", "-o", tridBin, "trilist/cmd/trid")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building trid: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// toyRun runs one workload at toy scale and returns its info and result
// lines.
func toyRun(t *testing.T, workload string, seed uint64, trace bool) (runInfo, result) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{
		workload: workload, seed: seed, seconds: 0.3, trace: trace,
		trid: tridBin, spool: t.TempDir(), fixtures: "../internal/ingest/testdata", nodes: 1500,
	}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want an info line and a result line, got %q", workload, out.String())
	}
	var info struct {
		Info runInfo `json:"info"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return info.Info, res
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsMatchBenchmarkJSON checks that every workload prints
// exactly the metric names and units BENCHMARK.json declares, in both
// modes, and that exact counts repeat across two untraced runs and
// agree with the traced run's per-layer counts.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		t.Run(w.Name, func(t *testing.T) {
			info1, res := toyRun(t, w.Name, 7, false)
			checkUnits(t, res, s.EndToEnd)
			info2, _ := toyRun(t, w.Name, 7, false)
			infoT, resT := toyRun(t, w.Name, 7, true)
			checkUnits(t, resT, s.PerLayer)
			for _, other := range []runInfo{info2, infoT} {
				if !sameGraphs(info1.Graphs, other.Graphs) {
					t.Errorf("exact counts differ between runs:\n%+v\n%+v", info1.Graphs, other.Graphs)
				}
			}
			g := info1.Graphs[0]
			if workloads[i].spec.Parts > 0 {
				wantEqual(t, resT, "extmem.arcs_read", float64(g.IO.ArcsRead))
				wantEqual(t, resT, "extmem.passes", float64(g.Passes))
				wantEqual(t, resT, "listing.comparisons", float64(g.Comparisons))
			} else {
				wantEqual(t, resT, "listing.model_ops", float64(g.ModelOps))
			}
			wantEqual(t, resT, "listing.triangles", float64(g.JobTris))
		})
	}
}

func checkUnits(t *testing.T, res result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func wantEqual(t *testing.T, res result, name string, want float64) {
	t.Helper()
	if got := res.Metrics[name].Value; got != want {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// sameGraphs compares the exact columns of two runs' graph rows. The
// planner pick trid reported is left out: its kernel part is priced
// from per-process calibration.
func sameGraphs(a, b []graphRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Planned, y.Planned = "", ""
		if x != y {
			return false
		}
	}
	return true
}

// TestSecondSeed checks that another seed gives other graphs that pass
// every check under the same metric names.
func TestSecondSeed(t *testing.T) {
	s := loadSpec(t)
	a, _ := toyRun(t, "partitioned", 7, false)
	b, res := toyRun(t, "partitioned", 8, false)
	checkUnits(t, res, s.EndToEnd)
	if sameGraphs(a.Graphs, b.Graphs) {
		t.Error("seeds 7 and 8 generated the same graph")
	}
}

// TestYardstick checks that the yardstick is fixed work: the same graph
// every time, and an even triangle count, since its merge and its hash
// probes each count every triangle.
func TestYardstick(t *testing.T) {
	y := newYardstick()
	if y.triangles == 0 || y.triangles%2 != 0 {
		t.Fatalf("yardstick counted %d, want a positive even count", y.triangles)
	}
	if ms, err := y.time(); err != nil || ms <= 0 {
		t.Errorf("time() = %v, %v", ms, err)
	}
	if z := newYardstick(); !bytes.Equal(z.body, y.body) {
		t.Error("two yardsticks generated different graphs")
	}
}

// TestLayersWithinOp checks the span arithmetic — self time subtracts
// the union of child spans — and that the layers' covered time is
// checked against the untraced latency: layers that exceed the p50 by
// more than layerSlack fail the run.
func TestLayersWithinOp(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: opSpan, op: 0, parent: -1, start: 0, end: 10 * ms},
		{name: "exec.run", op: 0, parent: 0, start: 1 * ms, end: 9 * ms},
		{name: "extmem.triple", op: 0, parent: 1, start: 2 * ms, end: 6 * ms},
		{name: "extmem.triple", op: 0, parent: 1, start: 4 * ms, end: 8 * ms},
	}}
	times := tr.analyze()
	got := times[0]
	if got.self["exec.run"] != 2*ms || got.self["extmem.triple"] != 8*ms || got.self[opSpan] != 2*ms || got.covered != 8*ms {
		t.Errorf("self %v covered %v; want exec.run 2ms, extmem.triple 8ms, op 2ms, covered 8ms", got.self, got.covered)
	}
	if rest, err := unattributedMS([]float64{9, 11, 12}, times); err != nil || rest != 3 {
		t.Errorf("unattributed = %v, %v; want 3 ms", rest, err)
	}
	if _, err := unattributedMS([]float64{6, 7, 9}, times); err == nil {
		t.Error("layers covering more than the untraced p50 latency were accepted")
	}
}
