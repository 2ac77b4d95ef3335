package stats

import (
	"math"
	"testing"
)

func TestBoolFrequency(t *testing.T) {
	r := NewRNGFromSeed(71)
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", got)
	}
	if r.Bool(0) {
		// probability 0 may never fire; a single draw check is fine
		t.Fatal("Bool(0) returned true")
	}
}

func TestECDFN(t *testing.T) {
	if NewECDF([]float64{1, 2}).N() != 2 {
		t.Fatal("ECDF.N wrong")
	}
	if !math.IsNaN(NewECDF(nil).At(3)) {
		t.Fatal("empty ECDF.At should be NaN")
	}
	if !math.IsNaN(NewECDF(nil).Quantile(0.5)) {
		t.Fatal("empty ECDF.Quantile should be NaN")
	}
	if !math.IsNaN(NewECDF(nil).KSDistance(func(float64) float64 { return 0 })) {
		t.Fatal("empty ECDF.KSDistance should be NaN")
	}
}
