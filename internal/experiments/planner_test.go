package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyPlannerConfig keeps the validation table fast enough for CI while
// leaving the grid complete.
func tinyPlannerConfig() PlannerConfig {
	return PlannerConfig{N: 1500, Seed: 3, Workers: 2}
}

func TestTablePlanner(t *testing.T) {
	b, err := TablePlanner(tinyPlannerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 1500 || b.Alpha != 1.5 {
		t.Fatalf("table header wrong: %+v", b)
	}
	if len(b.Rows) != 2*18*5 {
		t.Fatalf("got %d rows, want 180 (2 workloads × 18 methods × 5 orders)", len(b.Rows))
	}
	if len(b.Summary) != 2 {
		t.Fatalf("got %d summaries, want 2", len(b.Summary))
	}
	for _, r := range b.Rows {
		if r.Measured <= 0 || r.Predicted <= 0 {
			t.Fatalf("row %s/%s/%s has non-positive cost: %+v", r.Workload, r.Method, r.Order, r)
		}
		// Predictions track measurements within small-graph noise; an
		// integer-factor miss means the model and the meter diverged.
		if r.Ratio < 0.3 || r.Ratio > 3 {
			t.Errorf("row %s/%s/%s ratio %v out of plausible range", r.Workload, r.Method, r.Order, r.Ratio)
		}
	}
	for _, s := range b.Summary {
		if s.MeasuredRank < 1 || s.Overhead < 1 {
			t.Errorf("summary %+v inconsistent: rank and overhead are bounded below by 1", s)
		}
	}
}

func TestTablePlannerWorkerDeterminism(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4} {
		cfg := tinyPlannerConfig()
		cfg.Workers = workers
		b, err := TablePlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := FormatPlanner(b)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d output differs:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestPlannerGolden pins the planner validation at its default
// workload (n = 20000, seed 20170514) — every cell's predicted and
// measured ops, and each workload's predicted best, measured best,
// measured rank and overhead — byte for byte. Everything in it is
// deterministic given the seed, at any worker count.
func TestPlannerGolden(t *testing.T) {
	b, err := TablePlanner(PlannerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "planner.txt", []byte(FormatPlanner(b)))
}

func TestFormatPlannerAndCSV(t *testing.T) {
	b, err := TablePlanner(tinyPlannerConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := FormatPlanner(b)
	for _, want := range []string{"Planner validation", "predicted-best", "root", "linear", "T1", "descending"} {
		if !strings.Contains(text, want) {
			t.Errorf("format output missing %q:\n%s", want, text)
		}
	}
	var buf bytes.Buffer
	if err := WritePlannerCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(b.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d rows + header", lines, len(b.Rows))
	}
}
