// Package metrics is a minimal, dependency-free metrics substrate for
// the trid serving daemon: atomic counters, gauges and fixed-bucket
// histograms registered in a Registry that renders the Prometheus text
// exposition format (version 0.0.4). It implements exactly the subset a
// single-process server scrape needs — monotonically ordered output,
// one optional label per family — and nothing else, keeping the repo's
// zero-third-party-dependency invariant.
//
// All mutation paths are lock-free (atomic adds; the histogram sum uses
// a CAS loop over float64 bits), so instrumenting the hot listing path
// costs a handful of uncontended atomic operations per job, never a
// mutex.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for Prometheus semantics.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets with fixed
// upper bounds, plus a sum and a count — the Prometheus histogram type.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	slices.Sort(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i, _ := slices.BinarySearch(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets are latency buckets in seconds, spanning 100µs to ~100s —
// wide enough for both a cached count job on a small graph and an
// uncached sweep of a hundred-million-edge one.
var DefBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// family is one named metric family with zero or one label dimension.
type family struct {
	name, help, typ string
	label           string // label key; "" for unlabeled families

	mu      sync.Mutex
	buckets []float64      // histogram families only
	series  map[string]any // label value -> *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family // registration order; rendering sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ, label string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("metrics: family %q re-registered as %s/%q (was %s/%q)",
				name, typ, label, f.typ, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, label: label,
		buckets: buckets, series: make(map[string]any)}
	r.families[name] = f
	r.order = append(r.order, f)
	return f
}

func (f *family) get(labelValue string, make func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labelValue]; ok {
		return s
	}
	s := make()
	f.series[labelValue] = s
	return s
}

// NewCounter registers (or fetches) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.family(name, help, "counter", "", nil)
	return f.get("", func() any { return new(Counter) }).(*Counter)
}

// NewGauge registers (or fetches) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge", "", nil)
	return f.get("", func() any { return new(Gauge) }).(*Gauge)
}

// NewHistogram registers (or fetches) an unlabeled histogram with the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, "histogram", "", buckets)
	return f.get("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// NewCounterVec registers a counter family labeled by labelKey.
func (r *Registry) NewCounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", labelKey, nil)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.get(labelValue, func() any { return new(Counter) }).(*Counter)
}

// HistogramVec is a histogram family with one label dimension.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a histogram family labeled by labelKey.
func (r *Registry) NewHistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	return &HistogramVec{r.family(name, help, "histogram", labelKey, buckets)}
}

// With returns the histogram for one label value, creating it on first
// use.
func (v *HistogramVec) With(labelValue string) *Histogram {
	return v.f.get(labelValue, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// fmtFloat renders a sample value; Prometheus accepts Go's shortest
// representation, with +Inf spelled literally.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WriteText renders every family in the text exposition format, families
// sorted by name and series by label value, so scrapes (and golden
// tests) are deterministic. It never fails on a non-erroring writer.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	values := make([]string, 0, len(f.series))
	for v := range f.series {
		values = append(values, v)
	}
	slices.Sort(values)
	series := make([]any, len(values))
	for i, v := range values {
		series[i] = f.series[v]
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	label := func(value string, extra string) string {
		var parts []string
		if f.label != "" {
			parts = append(parts, f.label+`="`+escapeLabel(value)+`"`)
		}
		if extra != "" {
			parts = append(parts, extra)
		}
		if len(parts) == 0 {
			return ""
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	for i, value := range values {
		switch m := series[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, label(value, ""), m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, label(value, ""), m.Value()); err != nil {
				return err
			}
		case *Histogram:
			var cum int64
			for bi := 0; bi <= len(m.bounds); bi++ {
				bound := math.Inf(1)
				if bi < len(m.bounds) {
					bound = m.bounds[bi]
				}
				cum += m.counts[bi].Load()
				le := `le="` + fmtFloat(bound) + `"`
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, label(value, le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, label(value, ""), fmtFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, label(value, ""), m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ContentType is the HTTP Content-Type of the rendered exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"
