package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeGraph(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsOnK4(t *testing.T) {
	path := writeGraph(t, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
	var out strings.Builder
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"nodes     4",
		"edges     6",
		"degeneracy 3",
		"triangles 4",
		"global clustering 1.000000",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestStatsMatrix(t *testing.T) {
	// A clique so the matrix has signal.
	var b strings.Builder
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			fmt.Fprintf(&b, "%d %d\n", i, j)
		}
	}
	path := writeGraph(t, b.String())
	var out strings.Builder
	if err := run([]string{"-in", path, "-matrix"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "θ_degen") {
		t.Fatalf("matrix missing:\n%s", out.String())
	}
}

func TestStatsErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-in", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := writeGraph(t, "1 zebra\n")
	if err := run([]string{"-in", bad}, &out); err == nil {
		t.Fatal("malformed input accepted")
	}
	// No -speed-ratio knob: the planner's checked-in per-op costs
	// make the method choice.
	err := run([]string{"-in", writeGraph(t, "0 1\n"), "-speed-ratio", "3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-speed-ratio: got %v, want an unknown-flag error", err)
	}
}
