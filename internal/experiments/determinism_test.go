package experiments

import (
	"strings"
	"testing"

	"trilist/internal/obsv"
)

// determinismConfig is deliberately small: the invariance proof is about
// scheduling, not statistics, so tiny instances exercise it fully.
func determinismConfig() Config {
	return Config{
		Sizes:      []int{1000, 2000},
		Seqs:       2,
		Graphs:     2,
		Seed:       20170514,
		SurrogateN: 6000,
	}
}

// renderAllTables produces the formatted output of every simulated table
// (6–12) plus the scaling study, under the given worker count and
// (possibly nil) stage recorder.
func renderAllTables(t *testing.T, workers int, rec *obsv.Recorder) string {
	t.Helper()
	cfg := determinismConfig()
	cfg.Workers = workers
	cfg.Recorder = rec
	var b strings.Builder
	for _, run := range []func(Config) (*PairTable, error){
		Table6, Table7, Table8, Table9, Table10,
	} {
		tab, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
	}
	rows11, err := Table11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatTable11(rows11))
	res12, err := Table12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(res12.String())
	sc, err := Scaling(1.2, []float64{1e6, 1e8, 1e10}, workers)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(FormatScaling(1.2, sc))
	return b.String()
}

// serialRender caches the workers=1, nil-recorder render that both
// invariance tests compare against, so the package renders it once.
var serialRender string

func serialTables(t *testing.T) string {
	t.Helper()
	if serialRender == "" {
		serialRender = renderAllTables(t, 1, nil)
	}
	return serialRender
}

// TestWorkerCountInvariance enforces the engine's hard determinism
// contract: the formatted output of Tables 6–12 and the scaling study is
// byte-identical for any worker count, because RNG derivation stays
// serial and the sample merge tree is fixed by the protocol (engine.go).
func TestWorkerCountInvariance(t *testing.T) {
	want := serialTables(t)
	for _, workers := range []int{2, 8} {
		if got := renderAllTables(t, workers, nil); got != want {
			t.Errorf("workers=%d output differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestRecorderOutputInvariance is the observability half of the
// determinism contract: attaching a stage recorder to the engine — with
// trials running across several workers — leaves every rendered table
// byte-identical to the serial nil-recorder run, while the recorder
// itself accumulates the per-trial stage aggregates.
func TestRecorderOutputInvariance(t *testing.T) {
	want := serialTables(t)
	rec := obsv.NewRecorder()
	if got := renderAllTables(t, 4, rec); got != want {
		t.Errorf("workers=4 recorder-attached output differs from workers=1 nil-recorder output:\n--- nil ---\n%s\n--- recorder ---\n%s",
			want, got)
	}
	snap := rec.Snapshot()
	for _, stage := range []obsv.Stage{obsv.StageGenerate, obsv.StageRank, obsv.StageOrient} {
		if snap[stage].Count == 0 {
			t.Errorf("stage %q recorded no spans", stage)
		}
	}
}

// TestWorkerCountInvarianceRawSamples checks bit-level equality of the
// accumulated samples themselves (stronger than the formatted tables,
// which round away low-order bits).
func TestWorkerCountInvarianceRawSamples(t *testing.T) {
	run := func(workers int) *PairTable {
		cfg := determinismConfig()
		cfg.Workers = workers
		tab, err := Table6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for r := range want.Rows {
			for i := 0; i < 2; i++ {
				if got.Rows[r].Sim[i] != want.Rows[r].Sim[i] {
					t.Errorf("workers=%d row %d col %d: sim %v != %v (diff %g)",
						workers, r, i, got.Rows[r].Sim[i], want.Rows[r].Sim[i],
						got.Rows[r].Sim[i]-want.Rows[r].Sim[i])
				}
			}
		}
	}
}
