package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span as retained by the tracer.
type SpanRecord struct {
	ID     uint64
	Parent uint64  // 0 for root spans
	Trace  TraceID // zero for spans outside any request trace
	Name   string
	Attrs  []Label
	Start  time.Time
	Dur    time.Duration
}

// Tracer records hierarchical spans into a fixed-capacity ring buffer:
// once full, each finished span evicts the oldest retained one, so a
// long-running process keeps the most recent window of activity at a
// bounded memory cost. All methods are safe for concurrent use and safe on
// a nil receiver.
type Tracer struct {
	noop   bool
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []SpanRecord
	head    int // next write position
	n       int // filled entries
	dropped int64
}

// NewTracer creates a tracer retaining up to capacity finished spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, capacity)}
}

// Span is one in-flight operation. Create roots with Tracer.Start (or
// Tracer.StartWithTrace to join a request trace) and children with
// Span.Child; call End exactly once. A nil *Span is legal and all its
// methods are no-ops, so call sites need no tracer-enabled checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	trace  TraceID
	name   string
	start  time.Time
	ended  atomic.Bool

	// attrMu guards attrs: SetAttr may race with End (which snapshots the
	// attributes into the ring) when a request times out while a worker
	// goroutine is still annotating the span.
	attrMu sync.Mutex
	attrs  []Label
}

// Start begins a root span outside any trace.
func (t *Tracer) Start(name string, attrs ...Label) *Span {
	return t.start(TraceContext{}, name, attrs, 0)
}

// requestAttrRoom is the spare room StartWithTrace gives a request's root
// span for the annotations the request adds as it runs (its status, a cache
// hit), so that they do not regrow the attribute list.
const requestAttrRoom = 2

// StartWithTrace begins a request's root span inside the trace identified
// by tc: the span carries tc.TraceID on its record, and its recorded parent
// is tc.Parent (the remote caller's span ID) so cross-process trees line up.
func (t *Tracer) StartWithTrace(tc TraceContext, name string, attrs ...Label) *Span {
	return t.start(tc, name, attrs, requestAttrRoom)
}

// start begins a root span with room for that many more attributes.
func (t *Tracer) start(tc TraceContext, name string, attrs []Label, room int) *Span {
	if t == nil || t.noop {
		return nil
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: tc.Parent, trace: tc.TraceID, name: name, start: time.Now()}
	if len(attrs)+room > 0 {
		s.attrs = append(make([]Label, 0, len(attrs)+room), attrs...)
	}
	return s
}

// Child begins a span nested under s, inheriting s's trace.
func (s *Span) Child(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	c := s.t.Start(name, attrs...)
	if c != nil {
		c.parent = s.id
		c.trace = s.trace
	}
	return c
}

// SetAttr attaches (or appends) an attribute to an in-flight span. Safe to
// call concurrently with End: an attribute set after the span ended is
// dropped, never torn into the record.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.ended.Load() {
		return
	}
	s.attrMu.Lock()
	if !s.ended.Load() {
		s.attrs = append(s.attrs, Label{Key: key, Value: value})
	}
	s.attrMu.Unlock()
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Trace returns the trace the span belongs to (zero for a nil or untraced
// span).
func (s *Span) Trace() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// End finishes the span and records it. Extra End calls are ignored.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.attrMu.Lock()
	attrs := s.attrs
	s.attrMu.Unlock()
	rec := SpanRecord{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name, Attrs: attrs,
		Start: s.start, Dur: time.Since(s.start),
	}
	t := s.t
	t.mu.Lock()
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil || t.noop {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.n)
	start := (t.head - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Dropped returns how many finished spans were evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
