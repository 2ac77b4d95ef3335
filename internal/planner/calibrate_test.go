package planner

import (
	"math"
	"testing"
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
