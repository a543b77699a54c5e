// Package obs is the zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms), a
// mode-transition trace, and Prometheus-text / JSON / expvar exposition
// (see expo.go). The paper's phase detector runs off the VM's internal
// statistics; this package makes those signals — and the mode switches
// they trigger — visible while a sweep runs instead of only as
// end-of-run totals.
//
// Design constraints, in order:
//
//   - Inert: instrumentation must never change simulation results. The
//     registry only ever *reads* simulation state; everything here is
//     nil-safe (methods on a nil *Registry, *Counter, *Gauge,
//     *Histogram, or *TransitionTrace are no-ops), so instrumented code
//     needs no "if enabled" branches and the obs-off path costs one nil
//     check. check.ObsArtifactInvariance pins that rendered artifacts
//     are byte-identical with obs on or off, and check.ObsVariants that
//     every policy's Result is bit-identical.
//   - Cheap hot path: metric *lookup* (name → handle) takes a mutex and
//     is done once, at session/store construction; metric *updates* are
//     single atomic operations on the cached handles.
//   - Aggregating: handles are get-or-create by full name (name plus
//     rendered labels), so concurrent sessions observing the same
//     metric share one counter and exposition shows fleet totals.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with an atomic hot path.
// The zero value is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits.
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (CAS loop; rare path, gauges are set far more than added).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
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

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus semantics: bucket le=B counts observations ≤ B, with an
// implicit +Inf bucket). Bucket counts and the running sum are atomics;
// a nil *Histogram discards observations.
type Histogram struct {
	bounds []float64       // sorted ascending, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; per-bucket (non-cumulative)
	sum    atomic.Uint64   // float64 bits
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, or len = +Inf
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// DefBuckets is the default histogram bucketing (Prometheus's classic
// latency buckets, in seconds).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// TimeBuckets spans sub-millisecond restores to multi-second disk
// stalls (seconds, geometric ×4 from 10 µs).
var TimeBuckets = ExpBuckets(1e-5, 4, 10)

// ExpBuckets returns n geometric bucket bounds starting at start.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LinearBuckets returns n arithmetic bucket bounds starting at start.
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start += width
	}
	return b
}

type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument: family is the bare name, labels
// the rendered `k="v",...` pairs (empty when unlabeled), full the
// exposition identity family{labels}.
type metric struct {
	family string
	labels string
	full   string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a concurrency-safe set of named metrics. Handles are
// get-or-create: two lookups of the same (name, labels) return the same
// instrument, so independent sessions aggregate into shared totals. A
// nil *Registry returns nil handles, which in turn no-op — the
// idiomatic "observability off" value.
type Registry struct {
	mu     sync.Mutex
	byFull map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byFull: make(map[string]*metric)}
}

// renderLabels joins variadic key-value pairs into `k="v",...` form.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func fullName(family, labels string) string {
	if labels == "" {
		return family
	}
	return family + "{" + labels + "}"
}

// lookup returns the metric registered under (name, labels), creating
// it with mk on first use. A kind clash (the same full name registered
// as two different instrument kinds) panics: it is a static
// instrumentation bug, caught by any test that touches the path.
func (r *Registry) lookup(name string, labels []string, k kind, mk func(*metric)) *metric {
	lbl := renderLabels(labels)
	full := fullName(name, lbl)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byFull[full]; ok {
		if m.kind != k {
			panic("obs: metric " + full + " registered as both " + m.kind.String() + " and " + k.String())
		}
		return m
	}
	m := &metric{family: name, labels: lbl, full: full, kind: k}
	mk(m)
	r.byFull[full] = m
	return m
}

// Counter returns the counter registered under name with the given
// label pairs, creating it on first use. Nil receiver returns nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, counterKind, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge returns the gauge registered under name with the given label
// pairs, creating it on first use. Nil receiver returns nil.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, gaugeKind, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the histogram registered under name with the given
// label pairs, creating it with the bounds on first use (nil bounds =
// DefBuckets; later callers' bounds are ignored — first registration
// wins). Nil receiver returns nil.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, histKind, func(m *metric) {
		if bounds == nil {
			bounds = DefBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		m.h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}).h
}

// sorted returns the registered metrics ordered by (family, full) — the
// stable exposition order.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byFull))
	for _, m := range r.byFull {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].full < ms[j].full
	})
	return ms
}

// Snapshot returns a flat name → value view of the registry: counters
// and gauges under their full name, histograms as name_count and
// name_sum (labels preserved). It is the journal's metrics-record
// payload. Nil receiver returns nil.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, m := range r.sorted() {
		switch m.kind {
		case counterKind:
			out[m.full] = float64(m.c.Value())
		case gaugeKind:
			out[m.full] = m.g.Value()
		case histKind:
			out[fullName(m.family+"_count", m.labels)] = float64(m.h.Count())
			out[fullName(m.family+"_sum", m.labels)] = m.h.Sum()
		}
	}
	return out
}
