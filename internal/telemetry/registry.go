// Package telemetry is the repository's unified observability layer: a
// zero-dependency, concurrency-safe metrics registry (counters, gauges, and
// histograms with fixed log-scale buckets, all optionally labeled) plus a
// lightweight hierarchical span tracer with a ring-buffered in-memory
// recorder. It provides the "explicit instrumentation" the paper's
// conclusion calls for as one shared subsystem instead of per-package
// bolt-ons: internal/flow, internal/core, internal/streaming,
// internal/dedup, internal/emu, and internal/perfmodel all report through
// it, and every cmd/ binary can dump a machine-readable telemetry artifact
// (JSON lines), Prometheus text, or serve a live /metrics endpoint.
//
// Hot-path cost is kept negligible: metric handles are plain structs over
// sync/atomic, lookups happen once at wiring time, and a no-op registry
// (see Nop) reduces every update to a predictable branch so instrumented
// code can be benchmarked against a disabled baseline.
//
// An enabled request trace allocates nothing on the hot path either: a
// request keeps its root, stage and kernel spans in a SpanStack it owns
// (StartChild lends its slots to lower layers through the context), and
// the tracer copies each finished span into a ring slot that owns its
// attribute storage. What still allocates is off that path: heap spans
// (Start, Child, spans below a full stack), the retained-span copies that
// Snapshot and TraceSpans hand out, and, in the servers, slow-query
// capture, writer build spans, batch envelopes and net/http's own request
// parsing.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric or span dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricKind distinguishes the registry's metric types.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String renders the kind as its exporter name.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing int64 metric. All methods are safe
// for concurrent use and safe on a nil receiver (no-op).
type Counter struct {
	noop bool
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || c.noop || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. All methods are safe
// for concurrent use and safe on a nil receiver (no-op).
type Gauge struct {
	noop bool
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.noop {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta.
func (g *Gauge) Add(delta float64) {
	if g == nil || g.noop {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   MetricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a set of named, labeled metrics plus an attached span tracer.
// The zero value is not usable; create one with NewRegistry (or use the
// process-wide Default). All methods are safe for concurrent use; Counter,
// Gauge, and Histogram are get-or-create and return stable handles, best
// looked up once at wiring time; a per-operation lookup that hits (at most
// four labels) takes the registry mutex but allocates nothing. A nil
// *Registry is legal everywhere and yields no-op instruments.
type Registry struct {
	noop bool

	mu     sync.Mutex
	byKey  map[string]*metric
	tracer *Tracer

	nopC *Counter
	nopG *Gauge
	nopH *Histogram
}

// NewRegistry creates an empty live registry with a span tracer of the
// default capacity (4096 retained spans).
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*metric),
		tracer: NewTracer(4096),
	}
}

// Nop returns a disabled registry: every instrument it hands out reduces
// updates to a branch, and its tracer records nothing. Useful as an
// injection default and for overhead benchmarking.
func Nop() *Registry {
	r := &Registry{
		noop:   true,
		byKey:  make(map[string]*metric),
		tracer: &Tracer{noop: true},
		nopC:   &Counter{noop: true},
		nopG:   &Gauge{noop: true},
		nopH:   &Histogram{noop: true},
	}
	return r
}

var std = NewRegistry()

// Default returns the process-wide registry the cmd/ binaries export from.
func Default() *Registry { return std }

// Tracer returns the registry's span tracer.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// appendKey appends the canonical identity of name+labels to dst; labels
// must already be sorted.
func appendKey(dst []byte, name string, labels []Label) []byte {
	dst = append(dst, name...)
	for _, l := range labels {
		dst = append(dst, 0xff)
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	return dst
}

// key is appendKey as a string.
func key(name string, labels []Label) string { return string(appendKey(nil, name, labels)) }

// maxInlineLabels is how many labels lookup sorts in a stack array; a hit
// with at most this many allocates nothing.
const maxInlineLabels = 4

// lookup get-or-creates the metric for (name, labels, kind). It panics when
// the same name+labels was previously registered with a different kind —
// that is a programming error, not a runtime condition.
//
// Request paths resolve labeled handles per call, so a hit allocates
// nothing: up to maxInlineLabels labels are insertion-sorted in a stack
// array, the key is built in a stack buffer, and the map is indexed with
// string(buf), which does not copy. Only a first registration allocates.
func (r *Registry) lookup(name string, kind MetricKind, labels []Label) *metric {
	var inline [maxInlineLabels]Label
	ls := inline[:0]
	if len(labels) > len(inline) {
		ls = make([]Label, 0, len(labels))
	}
	ls = append(ls, labels...)
	for i := 1; i < len(ls); i++ { // insertion sort: stable, and labels are few
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	var buf [128]byte
	k := appendKey(buf[:0], name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[string(k)]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: append([]Label(nil), ls...), kind: kind}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		m.h = newHistogram()
	}
	r.byKey[string(k)] = m
	return m
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	if r.noop {
		return r.nopC
	}
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	if r.noop {
		return r.nopG
	}
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram for name+labels, creating it on first
// use. Buckets are fixed log-scale (powers of two), suitable for latencies
// observed in seconds.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if r.noop {
		return r.nopH
	}
	return r.lookup(name, KindHistogram, labels).h
}

// MetricSnapshot is one metric's exported state at snapshot time.
type MetricSnapshot struct {
	Name   string
	Labels []Label
	Kind   MetricKind

	// Counter value (KindCounter) or gauge value (KindGauge).
	Value float64
	// Histogram state (KindHistogram only).
	Hist HistogramSnapshot
}

// Snapshot returns a consistent copy of every registered metric, sorted by
// name then label set, safe to read while writers keep updating.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil || r.noop {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return key(ms[i].name, ms[i].labels) < key(ms[j].name, ms[j].labels)
	})
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Hist = m.h.Snapshot()
		}
		out = append(out, s)
	}
	return out
}
