package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Total jobs.")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.NewGauge("inflight", "In-flight jobs.")
	g.Set(7)
	g.Dec()
	g.Dec()
	g.Dec()
	g.Inc()
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Re-registering the same family returns the same instance.
	if r.NewCounter("jobs_total", "Total jobs.") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if want := 102.65; math.Abs(h.Sum()-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Cumulative buckets: <=0.1 holds 2 (0.05 and the boundary 0.1),
	// <=1 holds 3, <=10 holds 4, +Inf holds all 5.
	for _, line := range []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
}

func TestVecsAndRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("jobs_by_method_total", "Jobs per method.", "method")
	v.With("T1").Add(3)
	v.With("E1").Inc()
	hv := r.NewHistogramVec("dur_seconds", "Duration.", "method", []float64{1})
	hv.With("T1").Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"# HELP jobs_by_method_total Jobs per method.",
		"# TYPE jobs_by_method_total counter",
		`jobs_by_method_total{method="E1"} 1`,
		`jobs_by_method_total{method="T1"} 3`,
		`dur_seconds_bucket{method="T1",le="1"} 1`,
		`dur_seconds_sum{method="T1"} 0.5`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
	// Families render sorted by name: dur_seconds before jobs_by_method.
	if strings.Index(out, "dur_seconds") > strings.Index(out, "jobs_by_method_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	// Same vec cell twice is the same counter.
	if v.With("T1") != v.With("T1") {
		t.Fatal("vec returned different counters for the same label")
	}
}

func TestEmptyFamiliesOmitted(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("never_used_total", "No series yet.", "k")
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "never_used_total") {
		t.Fatalf("family without series rendered:\n%s", buf.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("odd_total", "Odd labels.", "k")
	v.With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `odd_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", buf.String())
	}
}

// TestConcurrentObservations drives every metric type from many
// goroutines; run under -race this is the lock-freedom regression test.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	g := r.NewGauge("g", "g")
	h := r.NewHistogram("h_seconds", "h", DefBuckets)
	v := r.NewCounterVec("v_total", "v", "m")
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i) / 100)
				v.With([]string{"T1", "T2", "E1"}[w%3]).Inc()
			}
		}(w)
	}
	// Concurrent scrape while writers run.
	var buf bytes.Buffer
	_ = r.WriteText(&buf)
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}
