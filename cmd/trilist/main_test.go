package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTempGraph(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// k4 has 4 triangles.
const k4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"

func TestRunCountsTriangles(t *testing.T) {
	path := writeTempGraph(t, k4)
	var out strings.Builder
	if err := run([]string{"-in", path, "-method", "E1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triangles=4") {
		t.Fatalf("output missing count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "order=descending") {
		t.Fatalf("auto order for E1 should be descending:\n%s", out.String())
	}
}

func TestRunPrintsTriangles(t *testing.T) {
	path := writeTempGraph(t, k4)
	var out strings.Builder
	if err := run([]string{"-in", path, "-method", "T2", "-order", "rr", "-print"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(out.String(), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
			f := strings.Fields(l)
			if len(f) != 3 {
				t.Fatalf("bad triangle line %q", l)
			}
		}
	}
	if lines != 4 {
		t.Fatalf("printed %d triangles, want 4", lines)
	}
}

func TestRunAllMethodsAndOrders(t *testing.T) {
	path := writeTempGraph(t, k4)
	for _, m := range []string{"T1", "t3", "E4", "L6"} {
		for _, o := range []string{"auto", "asc", "d", "rr", "crr", "uniform", "degen"} {
			var out strings.Builder
			if err := run([]string{"-in", path, "-method", m, "-order", o}, &out); err != nil {
				t.Fatalf("method %s order %s: %v", m, o, err)
			}
			if !strings.Contains(out.String(), "triangles=4") {
				t.Fatalf("method %s order %s wrong:\n%s", m, o, out.String())
			}
		}
	}
}

func TestRunWorkersAndPartitions(t *testing.T) {
	path := writeTempGraph(t, k4)
	for _, extra := range [][]string{
		{"-workers", "4"},
		{"-parts", "3"},
		// Parallel partitioned sweeps with speculation enabled.
		{"-parts", "3", "-workers", "4"},
		{"-parts", "2", "-workers", "8"},
	} {
		var out strings.Builder
		if err := run(append([]string{"-in", path, "-method", "E2"}, extra...), &out); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if !strings.Contains(out.String(), "triangles=4") {
			t.Fatalf("%v: wrong output:\n%s", extra, out.String())
		}
	}
}

// TestRunPartitionedMethod: the partitioned lister runs the E2 block
// sweep, so -method auto resolves to E2 under θ_D, an explicit E2 is
// accepted, and any other explicit method is rejected before sweeping.
func TestRunPartitionedMethod(t *testing.T) {
	path := writeTempGraph(t, k4)
	for _, m := range []string{"auto", "e2"} {
		var out strings.Builder
		if err := run([]string{"-in", path, "-method", m, "-parts", "2"}, &out); err != nil {
			t.Fatalf("-method %s -parts 2: %v", m, err)
		}
		if !strings.Contains(out.String(), "# partitioned: parts=2 order=descending") ||
			!strings.Contains(out.String(), "triangles=4") {
			t.Fatalf("-method %s -parts 2: wrong output:\n%s", m, out.String())
		}
	}
	for _, m := range []string{"E1", "T1", "L2"} {
		var out strings.Builder
		err := run([]string{"-in", path, "-method", m, "-parts", "2"}, &out)
		if err == nil || !strings.Contains(err.Error(), "E2 block sweep") {
			t.Fatalf("-method %s -parts 2: err = %v, want a rejection naming the E2 block sweep", m, err)
		}
		if strings.Contains(out.String(), "triangles=") {
			t.Fatalf("-method %s -parts 2: rejected run still listed:\n%s", m, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTempGraph(t, k4)
	var out strings.Builder
	if err := run([]string{"-in", path, "-method", "T9"}, &out); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run([]string{"-in", path, "-order", "zigzag"}, &out); err == nil {
		t.Error("unknown order accepted")
	}
	if err := run([]string{"-in", path, "-parts", "4", "-peers", "127.0.0.1:1"}, &out); err == nil {
		t.Error("unknown -peers flag accepted")
	}
	// The disk spill store and the pass retry policy are gone: their
	// flags are undefined.
	for _, f := range [][]string{{"-spill", t.TempDir()}, {"-retries", "3"}, {"-retry-backoff", "1ms"}} {
		args := append([]string{"-in", path, "-parts", "2"}, f...)
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: err = %v, want undefined flag", f, err)
		}
	}
	if err := run([]string{"-in", "/nonexistent/file"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeTempGraph(t, "0 zebra\n")
	if err := run([]string{"-in", bad}, &out); err == nil {
		t.Error("malformed input accepted")
	}
	if err := run([]string{"-in", writeTempGraph(t, k4), "-format", "nonsense"}, &out); err == nil {
		t.Error("unknown format accepted")
	}
	// Self-loops are stripped by SNAP ingest, not rejected.
	if err := run([]string{"-in", writeTempGraph(t, "0 0\n")}, &out); err != nil {
		t.Errorf("self-loop input rejected: %v", err)
	}
	// A file in the retired TRICSR binary format names the format and
	// its replacement instead of failing as a malformed edge list.
	old := writeTempGraph(t, "TRICSR\x00\x01\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00")
	err := run([]string{"-in", old}, &out)
	if err == nil || !strings.Contains(err.Error(), "retired TRICSR") || !strings.Contains(err.Error(), "gengraph -format csr") {
		t.Errorf("TRICSR input: got %v, want the retired-format error", err)
	}
	if err := run([]string{"-in", writeTempGraph(t, k4), "-format", "binary"}, &out); err == nil {
		t.Error("-format binary accepted")
	}
}

func TestRunTimeout(t *testing.T) {
	path := writeTempGraph(t, k4)
	// 1ns expires before the sweep's first cancellation checkpoint.
	var out strings.Builder
	err := run([]string{"-in", path, "-timeout", "1ns"}, &out)
	if err == nil {
		t.Fatal("expired deadline not reported")
	}
	if !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("error %q does not mention the deadline", err)
	}
	// A generous deadline changes nothing.
	out.Reset()
	if err := run([]string{"-in", path, "-method", "E1", "-timeout", "1m"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triangles=4") {
		t.Fatalf("timed run lost the count:\n%s", out.String())
	}
	// -timeout bounds the partitioned lister too: generous deadlines
	// change nothing, expired ones cancel between block triples.
	out.Reset()
	if err := run([]string{"-in", path, "-parts", "2", "-timeout", "1m"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "triangles=4") {
		t.Fatalf("timed partitioned run lost the count:\n%s", out.String())
	}
	err = run([]string{"-in", path, "-parts", "2", "-timeout", "1ns"}, &out)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("expired partitioned deadline not reported: %v", err)
	}
}

func TestRunStages(t *testing.T) {
	path := writeTempGraph(t, k4)
	var out strings.Builder
	if err := run([]string{"-in", path, "-stages"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# stage breakdown:", "rank", "orient", "list"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-stages output missing %q:\n%s", want, out.String())
		}
	}
	// The partitioned path reports the same stage set.
	out.Reset()
	if err := run([]string{"-in", path, "-parts", "2", "-stages"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# stage breakdown:") ||
		!strings.Contains(out.String(), "list") {
		t.Fatalf("-stages missing from partitioned run:\n%s", out.String())
	}
}

func TestRunPlannerModes(t *testing.T) {
	path := writeTempGraph(t, k4)
	// -plan prints the ranked table and runs nothing.
	var out strings.Builder
	if err := run([]string{"-in", path, "-plan"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"planner: nodes=4 edges=6", "rank", "per-node", "T1+descending"} {
		if !strings.Contains(s, want) {
			t.Fatalf("-plan output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "triangles=") {
		t.Fatalf("-plan must not sweep:\n%s", s)
	}
	// The default method is auto: the run reports what was planned, then
	// executes it.
	out.Reset()
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "# planned: method=") || !strings.Contains(s, "triangles=4") {
		t.Fatalf("auto run incomplete:\n%s", s)
	}
	// auto constrained to an explicit order executes under that order.
	out.Reset()
	if err := run([]string{"-in", path, "-order", "crr"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "order=complementary-round-robin") {
		t.Fatalf("constrained auto run ignored -order:\n%s", out.String())
	}
	// ...but the degenerate order cannot be planned.
	if err := run([]string{"-in", path, "-order", "degen"}, &out); err == nil ||
		!strings.Contains(err.Error(), "cannot plan order") {
		t.Fatalf("auto+degenerate accepted: %v", err)
	}
}
