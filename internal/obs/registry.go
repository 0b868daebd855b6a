// Package obs is the repository's dependency-free observability
// toolkit: a named metrics Registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text-format exposition,
// and a lightweight per-search Trace of phase spans.
//
// The design constraints, in order:
//
//   - Hot-path safe. Every metric mutator is a handful of atomic
//     operations with zero allocations, and every metric type is
//     nil-receiver safe — instrumented code writes c.Inc() without
//     guarding, so the uninstrumented configuration pays one
//     predictable nil check and the engine's zero-allocation
//     guarantee (TestHotPathAllocs) holds with a live registry.
//   - Dependency-free. Only the standard library; the exposition is
//     the Prometheus text format written by hand, so daemons scrape
//     without pulling a client library into the module.
//   - Registration is idempotent: asking for the same name with the
//     same type, help and label signature returns the same metric,
//     so package-level instrumentation can re-resolve its series
//     without coordination. Conflicting re-registration panics —
//     a programming error, caught in tests.
//
// Metric and label names must match the Prometheus data model
// ([a-zA-Z_:][a-zA-Z0-9_:]* and [a-zA-Z_][a-zA-Z0-9_]*); violations
// panic at registration time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family groups every series registered under one metric name: they
// share the kind, help text and label names, and differ only in label
// values.
type family struct {
	name string
	help string
	kind metricKind

	// series, keyed by the rendered label signature. The zero-label
	// series uses the empty key.
	series map[string]any

	// fn is set for GaugeFunc families; collected at scrape time.
	fn func() []Sample

	// buckets is set for histogram families (upper bounds, ascending,
	// +Inf implicit).
	buckets []float64
}

// Registry is a named collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is valid
// everywhere: every constructor returns a nil metric, and nil metrics
// accept updates as no-ops — instrumentation never branches.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable iteration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameOK  = regexpLike("[a-zA-Z_:][a-zA-Z0-9_:]*")
	labelOK = regexpLike("[a-zA-Z_][a-zA-Z0-9_]*")
)

// regexpLike returns a validator for the two fixed character-class
// patterns above without pulling regexp into every binary's init.
func regexpLike(pattern string) func(string) bool {
	extended := strings.Contains(pattern, ":")
	return func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			case c == ':' && extended:
			case c >= '0' && c <= '9':
				if i == 0 {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
}

// checkLabels validates the label set and returns its canonical
// signature (sorted by name) used as the series key.
func checkLabels(metric string, labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if !labelOK(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Name, metric))
		}
		if i > 0 {
			if ls[i-1].Name == l.Name {
				panic(fmt.Sprintf("obs: duplicate label %q on metric %q", l.Name, metric))
			}
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// labelNames extracts the sorted label-name signature, for detecting
// re-registration with a different label set.
func labelNames(sig string) string {
	if sig == "" {
		return ""
	}
	var names []string
	for _, part := range splitSeries(sig) {
		names = append(names, part[:strings.IndexByte(part, '=')])
	}
	return strings.Join(names, ",")
}

// splitSeries splits a label signature on the commas that separate
// pairs (values are strconv-quoted, so embedded commas are escaped —
// but quotes may contain commas, so walk the quoting).
func splitSeries(sig string) []string {
	var parts []string
	depth := false
	start := 0
	for i := 0; i < len(sig); i++ {
		switch sig[i] {
		case '"':
			if i == 0 || sig[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				parts = append(parts, sig[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, sig[start:])
}

// lookup finds or creates the family, enforcing consistency.
func (r *Registry) lookup(name, help string, kind metricKind, sig string, buckets []float64) *family {
	if !nameOK(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any), buckets: buckets}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered with different help", name))
	}
	for existing := range f.series {
		if labelNames(existing) != labelNames(sig) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different label names", name))
		}
		break
	}
	if kind == kindHistogram && !equalBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	return f
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing integer series. The nil
// Counter accepts updates as no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or finds) a counter series. The exposed name
// should end in _total by Prometheus convention; this is not
// enforced. Nil receiver returns a nil (no-op) Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sig := checkLabels(name, labels)
	f := r.lookup(name, help, kindCounter, sig, nil)
	if m, ok := f.series[sig]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[sig] = c
	return c
}

// Gauge is a float64 series that can go up and down. The nil Gauge
// accepts updates as no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers (or finds) a gauge series. Nil receiver returns a
// nil (no-op) Gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sig := checkLabels(name, labels)
	f := r.lookup(name, help, kindGauge, sig, nil)
	if m, ok := f.series[sig]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[sig] = g
	return g
}

// Histogram is a fixed-bucket distribution: cumulative bucket counts,
// a running sum, and a total count, all updated atomically. The nil
// Histogram accepts updates as no-ops.
type Histogram struct {
	upper   []float64
	buckets []atomic.Int64 // non-cumulative; summed at scrape
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and the scan is
	// branch-predictable; a binary search would not win here.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DurationBuckets is a general-purpose latency bucket ladder in
// seconds, from 100µs to ~100s.
var DurationBuckets = []float64{
	1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 1e-1, 2.5e-1, 1, 2.5, 10, 100,
}

// Histogram registers (or finds) a histogram series with the given
// ascending upper bounds (+Inf is implicit). Nil receiver returns a
// nil (no-op) Histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sig := checkLabels(name, labels)
	f := r.lookup(name, help, kindHistogram, sig, buckets)
	if m, ok := f.series[sig]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{upper: f.buckets, buckets: make([]atomic.Int64, len(f.buckets)+1)}
	f.series[sig] = h
	return h
}

// Sample is one collect-time gauge reading from a GaugeFunc.
type Sample struct {
	Value  float64
	Labels []Label
}

// GaugeFunc registers a gauge family whose samples are produced by fn
// at scrape time — the shape for values that live behind a mutex
// (queue depth, per-worker staleness) where mirroring into an atomic
// on every change would be invasive. fn must be safe for concurrent
// use and return quickly; each returned Sample may carry its own
// label values. Repeated registration of the same name replaces fn
// (last wins), so a recovered coordinator can rebind its collectors.
func (r *Registry) GaugeFunc(name, help string, fn func() []Sample) {
	if r == nil {
		return
	}
	if fn == nil {
		panic(fmt.Sprintf("obs: nil GaugeFunc for metric %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc, "", nil)
	f.fn = fn
}
