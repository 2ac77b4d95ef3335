package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tinyArgs(table string) []string {
	return []string{
		"-table", table,
		"-sizes", "1500,3000",
		"-seqs", "1", "-graphs", "1",
		"-surrogate", "5000",
		"-seed", "3",
	}
}

func TestExperimentsTable6(t *testing.T) {
	var out strings.Builder
	if err := run(tinyArgs("6"), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 6") || !strings.Contains(s, "T1+θ_D") {
		t.Fatalf("output incomplete:\n%s", s)
	}
}

func TestExperimentsTable12(t *testing.T) {
	var out strings.Builder
	if err := run(tinyArgs("12"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 12") {
		t.Fatalf("output incomplete:\n%s", out.String())
	}
}

func TestExperimentsCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(append(tinyArgs("12"), "-csv", dir), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table12.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "method") || !strings.Contains(string(data), "T1") {
		t.Fatalf("CSV incomplete:\n%s", data)
	}
}

func TestExperimentsScalingCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-table", "scaling", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scaling.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "cost/a_n") || !strings.Contains(string(data), "cost/b_n") {
		t.Fatalf("scaling CSV incomplete:\n%s", data)
	}
}

// stripTimings drops wall-clock lines so runs are comparable.
func stripTimings(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "computed in") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestExperimentsWorkerDeterminism(t *testing.T) {
	// The -workers flag must never change table content: byte-identical
	// output (timing lines aside) for workers 1, 2 and 8.
	for _, table := range []string{"6", "11", "12", "scaling"} {
		t.Run("table"+table, func(t *testing.T) {
			var want string
			for _, workers := range []string{"1", "2", "8"} {
				var out strings.Builder
				args := append(tinyArgs(table), "-workers", workers)
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				got := stripTimings(out.String())
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("-workers %s output differs:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}

func TestExperimentsPlanner(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-table", "planner", "-n", "1500", "-seed", "3", "-csv", dir}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Planner validation", "predicted-best", "measured-rank"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "planner.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "workload,method,order,predicted_ops,measured_ops,ratio\n") {
		t.Fatalf("planner CSV header wrong:\n%s", data)
	}
}

func TestExperimentsKernelsCSV(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-table", "kernels", "-n", "1500", "-trials", "1", "-csv", dir}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Kernel ablation") {
		t.Fatalf("output incomplete:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "kernels.csv"))
	if err != nil {
		t.Fatal(err)
	}
	// Header plus 2 truncations × 2 methods × 6 kernels.
	if lines := strings.Count(string(data), "\n"); lines != 1+2*2*6 {
		t.Fatalf("kernels CSV has %d lines, want 25:\n%s", lines, data)
	}
}

// TestExperimentsRetiredTableAndFlags: the pipeline table and the
// baseline-gate flags of the old JSON bench documents are gone, and
// using them is an error rather than a silent no-op.
func TestExperimentsRetiredTableAndFlags(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-table", "pipeline", "-n", "1500"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown table "pipeline"`) {
		t.Fatalf("-table pipeline: err %v, want unknown table", err)
	}
	retired := []string{"-bench-out", "-tolerance", "-planner-out"}
	for _, table := range []string{"", "kernels-", "planner-"} {
		retired = append(retired, "-"+table+"baseline")
	}
	for _, flag := range retired {
		err := run([]string{"-table", "planner", "-n", "1500", flag, "0.25"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err %v, want undefined flag", flag, err)
		}
	}
}

func TestExperimentsUnknownTable(t *testing.T) {
	var out strings.Builder
	if err := run(tinyArgs("99"), &out); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := run([]string{"-scale", "galactic"}, &out); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if err := run([]string{"-sizes", "12,abc"}, &out); err == nil {
		t.Fatal("bad sizes accepted")
	}
}
