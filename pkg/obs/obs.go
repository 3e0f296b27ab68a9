// Package obs is the repo's dependency-free telemetry core: atomic
// counters, gauges, and fixed-bucket latency histograms collected in a
// Registry that exposes itself in Prometheus text format (v0.0.4).
//
// Everything is safe for concurrent use and safe on nil receivers — a
// nil *Counter / *Gauge / *Histogram is a no-op sink, so code paths can
// be instrumented unconditionally and callers that do not care about
// telemetry simply pass no registry.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a static label set attached to one series. Label values are
// fixed at registration; per-call label values are deliberately not
// supported (the serving stack's cardinality is known at construction).
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n < 0 is ignored: counters are monotonic). No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count. 0 on nil.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (may be negative). No-op on nil.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value. 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled member of a family. Exactly one of the value
// sources is set: a static metric (counter/gauge/hist) or a read-time
// function (fn/histFn).
type series struct {
	labels  Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64           // counterFunc / gaugeFunc
	histFn  func() HistogramSnapshot // histogramFunc
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
	byKey  map[string]bool // registered label signatures, for dup detection
}

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; all constructors are no-ops
// returning nil metrics when the Registry itself is nil.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// labelKey is a canonical signature of a label set, used only for
// duplicate detection within a family.
func labelKey(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, ls[k])
	}
	return b.String()
}

// register adds one series to the named family, creating the family on
// first use. It panics on a (name, labels) duplicate or on re-use of a
// name with a different type or help: both are construction-time
// programming errors, not runtime conditions.
func (r *Registry) register(name, help string, typ metricType, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: map[string]bool{}}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q registered with conflicting help", name))
	}
	key := labelKey(s.labels)
	if f.byKey[key] {
		panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, key))
	}
	f.byKey[key] = true
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series. Returns nil (a valid
// no-op counter) when r is nil.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(name, help, typeCounter, &series{labels: labels, counter: c})
	return c
}

// Gauge registers and returns a gauge series. Returns nil when r is nil.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(name, help, typeGauge, &series{labels: labels, gauge: g})
	return g
}

// Histogram registers and returns a histogram series with the given
// bucket upper edges (ascending). Returns nil when r is nil.
func (r *Registry) Histogram(name, help string, edges []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(edges)
	r.register(name, help, typeHistogram, &series{labels: labels, hist: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for subsystems that already keep their
// own monotonic counts (engine stats, mutation stats).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, typeCounter, &series{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, typeGauge, &series{labels: labels, fn: fn})
}

// HistogramFunc registers a histogram whose snapshot is produced by fn
// at exposition time — the bridge for engines that aggregate their own
// latency histograms across shards.
func (r *Registry) HistogramFunc(name, help string, labels Labels, fn func() HistogramSnapshot) {
	if r == nil {
		return
	}
	r.register(name, help, typeHistogram, &series{labels: labels, histFn: fn})
}

// ServeHTTP exposes the registry in Prometheus text format.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
