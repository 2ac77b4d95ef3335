package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"trilist/internal/graph"
	"trilist/internal/ingest"
	"trilist/internal/testkit"
)

func genTo(t *testing.T, args ...string) *graph.Graph {
	t.Helper()
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := run(append(args, "-out", out)); err != nil {
		t.Fatal(err)
	}
	ld, err := ingest.LoadFile(out, ingest.FormatAuto, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ld.Close() })
	return ld.Graph
}

func TestGenerateResidual(t *testing.T) {
	g := genTo(t, "-n", "2000", "-alpha", "1.5", "-trunc", "root", "-seed", "5")
	if g.NumNodes() != 2000 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := g.MaxDegree(); m*m > 2000 {
		t.Fatalf("max degree %d violates root truncation", m)
	}
}

func TestGenerateAllGenerators(t *testing.T) {
	for _, gen := range []string{"residual", "config", "chunglu"} {
		g := genTo(t, "-n", "1000", "-alpha", "2.0", "-gen", gen, "-seed", "9")
		if g.NumNodes() != 1000 || g.NumEdges() == 0 {
			t.Fatalf("%s: n=%d m=%d", gen, g.NumNodes(), g.NumEdges())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
	}
}

func TestGenerateNetworkModels(t *testing.T) {
	ba := genTo(t, "-n", "1000", "-gen", "ba", "-k", "2", "-seed", "4")
	if ba.NumEdges() != int64(3+2*(1000-3)) {
		t.Fatalf("BA m = %d", ba.NumEdges())
	}
	ws := genTo(t, "-n", "500", "-gen", "ws", "-k", "3", "-rewire", "0.2", "-seed", "4")
	if ws.NumEdges() != 1500 {
		t.Fatalf("WS m = %d", ws.NumEdges())
	}
	if err := run([]string{"-n", "3", "-gen", "ba", "-k", "5"}); err == nil {
		t.Fatal("BA with n < k+1 accepted")
	}
	if err := run([]string{"-n", "5", "-gen", "ws", "-k", "3"}); err == nil {
		t.Fatal("WS with n < 2k+1 accepted")
	}
}

func TestGenerateErdosRenyi(t *testing.T) {
	g := genTo(t, "-n", "500", "-gen", "er", "-m", "1200", "-seed", "3")
	if g.NumEdges() != 1200 {
		t.Fatalf("m = %d, want 1200", g.NumEdges())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTo(t, "-n", "800", "-alpha", "1.7", "-seed", "42")
	b := genTo(t, "-n", "800", "-alpha", "1.7", "-seed", "42")
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	ea, eb := testkit.EdgeSlice(a), testkit.EdgeSlice(b)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

// TestGenerateFormats: -format text and -format csr at one seed load
// through ingest.LoadFile to Equal graphs; the retired binary format
// and unknown formats are rejected.
func TestGenerateFormats(t *testing.T) {
	dir := t.TempDir()
	load := func(format string) *ingest.Loaded {
		path := filepath.Join(dir, "g."+format)
		if err := run([]string{"-n", "600", "-alpha", "1.7", "-seed", "8", "-format", format, "-out", path}); err != nil {
			t.Fatal(err)
		}
		ld, err := ingest.LoadFile(path, ingest.FormatAuto, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ld.Close() })
		return ld
	}
	txt, csr := load("text"), load("csr")
	if txt.Format != ingest.FormatSNAP || csr.Format != ingest.FormatCSR {
		t.Fatalf("formats sniffed as %v and %v, want snap and csr", txt.Format, csr.Format)
	}
	if txt.Graph.NumEdges() == 0 || !testkit.GraphsEqual(txt.Graph, csr.Graph) {
		t.Fatalf("text %d/%d vs csr %d/%d", txt.Graph.NumNodes(), txt.Graph.NumEdges(),
			csr.Graph.NumNodes(), csr.Graph.NumEdges())
	}
}

// TestGenerateErrors: every rejected flag fails before -out is
// created, so no empty or partial file is left behind.
func TestGenerateErrors(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"n=0":                 {"-n", "0"},
		"er without -m":       {"-n", "10", "-gen", "er"},
		"unknown generator":   {"-n", "10", "-gen", "unknown"},
		"unknown truncation":  {"-n", "10", "-trunc", "weird"},
		"alpha<=1 no beta":    {"-n", "10", "-alpha", "0.9"},
		"unknown format":      {"-n", "10", "-format", "weird"},
		"retired binary":      {"-n", "10", "-format", "binary"},
		"ba with n < k+1":     {"-n", "3", "-gen", "ba", "-k", "5"},
		"ws with n < 2k+1":    {"-n", "5", "-gen", "ws", "-k", "3"},
		"er with m > C(n, 2)": {"-n", "4", "-gen", "er", "-m", "7"},
	} {
		out := filepath.Join(dir, "out")
		if err := run(append(args, "-out", out)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: -out file left behind (stat: %v)", name, err)
			os.Remove(out)
		}
	}
	// alpha <= 1 works with explicit beta.
	out := filepath.Join(dir, "g.txt")
	if err := run([]string{"-n", "500", "-alpha", "0.9", "-beta", "5", "-trunc", "root", "-out", out}); err != nil {
		t.Errorf("alpha=0.9 with beta rejected: %v", err)
	}
}
