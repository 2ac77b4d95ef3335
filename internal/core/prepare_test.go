package core

import (
	"fmt"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/graph"
	"trilist/internal/order"
	"trilist/internal/stats"
	"trilist/internal/testkit"
)

// TestPrepareWorkerInvariance: Config.Workers never changes Prepare's
// output, for every order kind on the ER and both Pareto workloads — the
// property that makes Config.Workers safe to raise anywhere.
func TestPrepareWorkerInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	er, err := gen.ErdosRenyi(500, 2500, stats.NewRNGFromSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	graphs["er"] = er
	p := degseq.StandardPareto(1.5)
	for _, trunc := range []degseq.Truncation{degseq.RootTruncation, degseq.LinearTruncation} {
		g, _, err := gen.ParetoGraph(p, 500, trunc, stats.NewRNGFromSeed(32))
		if err != nil {
			t.Fatal(err)
		}
		graphs["pareto-"+trunc.String()] = g
	}
	for name, g := range graphs {
		for _, kind := range order.Kinds {
			t.Run(fmt.Sprintf("%s/%v", name, kind), func(t *testing.T) {
				cfg := Config{Order: kind, Seed: 99}
				serial, err := Prepare(g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{2, 8} {
					wcfg := cfg
					wcfg.Workers = w
					par, err := Prepare(g, wcfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if !testkit.OrientationsEqual(par, serial) {
						t.Fatalf("workers=%d: Prepare output differs from serial", w)
					}
				}
			})
		}
	}
}
