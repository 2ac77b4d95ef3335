package planner

import (
	"math"
	"testing"

	"trilist/internal/degseq"
	"trilist/internal/gen"
	"trilist/internal/listing"
	"trilist/internal/stats"
)

func TestCalibrateKernelsSaneAndCached(t *testing.T) {
	c := CalibrateKernels()
	for name, v := range map[string]float64{
		"merge_ns": c.MergeNs, "gallop_ns": c.GallopNs, "probe_ns": c.ProbeNs, "word_ns": c.WordNs,
	} {
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s = %v, want positive finite", name, v)
		}
		if v > 1000 {
			t.Errorf("%s = %v ns, implausibly slow for one elementary op", name, v)
		}
	}
	if again := CalibrateKernels(); again != c {
		t.Errorf("second calibration returned different coefficients: %+v vs %+v", again, c)
	}
}

func TestPlanKernelPricedChoice(t *testing.T) {
	const nodes = 100_000
	heavy, err := degseq.TruncateFor(degseq.StandardPareto(1.5), degseq.LinearTruncation, nodes)
	if err != nil {
		t.Fatal(err)
	}

	// Cheap words on a heavy tail: the core carries most of the d²
	// mass, so the hybrid must clear the margin.
	cheapWords := KernelCoeffs{MergeNs: 1, GallopNs: 1.5, ProbeNs: 1, WordNs: 0.01}
	kp := planKernel(heavy, nodes, nodes, cheapWords)
	if kp.Kernel != listing.KernelHybrid {
		t.Fatalf("heavy tail + cheap words chose %v (gain %.3f), want hybrid", kp.Kernel, kp.Gain)
	}
	if kp.CoreThreshold < 1 {
		t.Fatalf("core threshold %d < 1", kp.CoreThreshold)
	}
	// The threshold must respect the row budget: predicted rows at τ
	// never exceed it.
	rowBytes := int64((nodes + 63) / 64 * 8)
	if kp.RowBytes > listing.DefaultBitRowBudget+rowBytes {
		t.Fatalf("predicted RowBytes %d overflow budget %d", kp.RowBytes, int64(listing.DefaultBitRowBudget))
	}
	if kp.CoreShare <= 0 || kp.CoreShare > 1 {
		t.Fatalf("core share %v out of (0,1]", kp.CoreShare)
	}

	// Absurdly expensive words: the bit tier can never win.
	kp = planKernel(heavy, nodes, nodes, KernelCoeffs{MergeNs: 1, GallopNs: 1.5, ProbeNs: 1, WordNs: 1e6})
	if kp.Kernel != listing.KernelAuto {
		t.Fatalf("expensive words chose %v, want auto", kp.Kernel)
	}
	if kp.Gain != 0 {
		t.Fatalf("expensive words predicted gain %v, want 0", kp.Gain)
	}

	// A light uniform degree-5 population so large that the budget
	// forces τ above the whole support: no core, adaptive kernel.
	light, err := degseq.NewEmpirical([]float64{0, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	kp = planKernel(light, 1_000_000, 1_000_000, cheapWords)
	if kp.Kernel != listing.KernelAuto || kp.CoreVertices != 0 {
		t.Fatalf("budget-starved light tail: got kernel %v core %d, want auto with empty core",
			kp.Kernel, kp.CoreVertices)
	}
	if kp.CoreThreshold <= 5 {
		t.Fatalf("budget-starved τ = %d, want above the degree-5 support", kp.CoreThreshold)
	}
}

// TestComputeCarriesKernelPlanAndView: the plan's kernel choice is
// priced with the checked-in coefficients, never the host calibration,
// and its view round-trips through the job API.
func TestComputeCarriesKernelPlanAndView(t *testing.T) {
	g, _, err := gen.ParetoGraph(degseq.StandardPareto(1.5), 2000, degseq.LinearTruncation, stats.NewRNGFromSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel.CoreThreshold < 1 || p.Kernel.Coeffs != plannedKernelCoeffs {
		t.Fatalf("kernel plan not populated from the checked-in coefficients: %+v", p.Kernel)
	}
	d, err := degseq.FromHistogram(g.DegreeHistogram())
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel != planKernel(d, int64(g.NumNodes()), int64(g.NumNodes()), plannedKernelCoeffs) {
		t.Fatalf("kernel plan %+v is not the checked-in pricing", p.Kernel)
	}
	v := p.View()
	if v.Kernel.Kernel != p.Kernel.Kernel.String() || v.Kernel.CoreThreshold != p.Kernel.CoreThreshold {
		t.Fatalf("view kernel %+v disagrees with plan %+v", v.Kernel, p.Kernel)
	}
	// The kernel name must round-trip through the job API's parser.
	if _, err := listing.ParseKernel(v.Kernel.Kernel); err != nil {
		t.Fatalf("planned kernel %q does not parse: %v", v.Kernel.Kernel, err)
	}
}
