package obs

import (
	"expvar"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (queue depth, in-flight count).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histSub is the number of sub-buckets per power of two. Four sub-buckets
// bound the relative quantile error at ~12.5%, HDR-histogram style, in a
// fixed 2 KiB of atomic counters per histogram.
const histSub = 4

// histBuckets covers values up to 2^63-1 at histSub sub-buckets per octave.
const histBuckets = 62*histSub + histSub

// Histogram is a fixed-size log-linear histogram of non-negative int64
// samples (latencies in nanoseconds, sizes in bytes). Recording is one
// bucket index computation plus four atomic adds — safe for concurrent
// use, no locks, no allocation.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	// minP1 stores the exact minimum plus one, so the zero value means
	// "no samples yet" and the zero-value Histogram stays usable.
	minP1   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps v to its bucket: values below histSub get exact buckets,
// larger values land in (octave, top-2-bits) buckets.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= 2
	sub := (v >> (uint(e) - 2)) & 3
	return (e-1)*histSub + int(sub)
}

// bucketLower is the smallest value mapping to bucket i.
func bucketLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	e := uint(i/histSub) + 1
	sub := int64(i % histSub)
	return 1<<e + sub<<(e-2)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		m := h.minP1.Load()
		if (m != 0 && v+1 >= m) || h.minP1.CompareAndSwap(m, v+1) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Min returns the exact smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	m := h.minP1.Load()
	if m == 0 {
		return 0
	}
	return m - 1
}

// Max returns the exact largest recorded sample (0 when empty) — the
// true tail, where the bucket-floor quantiles necessarily read low.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an estimate of the q-quantile (q in [0,1]): the lower
// bound of the bucket holding the q-th sample, within one sub-bucket of
// the true value. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > target {
			return bucketLower(i)
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the exported view of a histogram. Min and Max
// are exact recorded samples; the quantiles are bucket-floor estimates
// (within one sub-bucket, i.e. they can read up to ~12.5% low).
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// snapshot captures the histogram's summary. Concurrent recording makes
// it approximate, which is fine for monitoring output.
func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.count.Load(), Sum: h.sum.Load(), Min: h.Min(), Max: h.max.Load(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

// Registry is a named collection of counters, gauges and histograms.
// Lookups are get-or-create; hot paths should resolve their instruments
// once (package-level vars) and then pay only the atomic ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// M is the process-global metrics registry, published through expvar as
// "atomiccommit" and served by DebugHandler at /debug/metrics.
var M = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue reads the named counter without creating it (0 if absent).
// Benchmarks diff counter values around a run to derive per-txn columns.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// Snapshot returns every instrument's current value keyed by name:
// counters and gauges as int64, histograms as HistogramSnapshot. The
// map is freshly built and safe to serialize.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.snapshot()
	}
	return out
}

func init() {
	expvar.Publish("atomiccommit", expvar.Func(func() any { return M.Snapshot() }))
}
