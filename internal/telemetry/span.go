package telemetry

import (
	"sync"
	"sync/atomic"
	"testing"
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
// bounded memory cost. Each ring slot owns the storage of the attributes
// recorded into it, so recording a span allocates nothing once the ring has
// its room, and nothing retained aliases the span it was copied from. All
// methods are safe for concurrent use and safe on a nil receiver.
type Tracer struct {
	noop   bool
	nextID atomic.Uint64

	mu      sync.Mutex
	ring    []SpanRecord
	head    int // next write position
	n       int // filled entries
	dropped int64
	roomy   bool // the ring slots have their attribute room
}

// ringAttrRoom is the attribute storage each ring slot starts with, given
// on the first record: enough for every span the servers record, so only a
// longer attribute list grows a slot's storage (once, for good).
const ringAttrRoom = 4

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
// Span.Child, or start them in storage a request owns (SpanStack); call End
// exactly once. A nil *Span is legal and all its methods are no-ops, so
// call sites need no tracer-enabled checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	trace  TraceID
	name   string
	start  time.Time
	ended  atomic.Bool

	// attrMu guards attrs: SetAttr may race with End (which copies the
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

// start begins a heap span in trace tc with room for that many more
// attributes.
func (t *Tracer) start(tc TraceContext, name string, attrs []Label, room int) *Span {
	if t == nil || t.noop {
		return nil
	}
	s := &Span{}
	if len(attrs)+room > 0 {
		s.attrs = make([]Label, 0, len(attrs)+room)
	}
	s.begin(t, tc, name, attrs)
	return s
}

// begin starts s as a new span of t in trace tc.TraceID under tc.Parent.
// s's storage may have held an earlier, ended span: its attribute list is
// reused.
func (s *Span) begin(t *Tracer, tc TraceContext, name string, attrs []Label) {
	s.t, s.id, s.parent, s.trace, s.name = t, t.nextID.Add(1), tc.Parent, tc.TraceID, name
	s.attrs = append(s.attrs[:0], attrs...)
	s.ended.Store(false)
	s.start = time.Now()
}

// Detached returns a stand-in for span tc.Parent of trace tc.TraceID when
// that span is not in this caller's hands — it ended, or it belongs to a
// request whose storage may be reused. The stand-in records nothing; spans
// started under it join the trace as tc.Parent's children. Nil when t
// records nothing.
func (t *Tracer) Detached(tc TraceContext) *Span {
	if t == nil || t.noop {
		return nil
	}
	s := &Span{t: t, id: tc.Parent, trace: tc.TraceID}
	s.ended.Store(true)
	return s
}

// Child begins a span nested under s, inheriting s's trace.
func (s *Span) Child(name string, attrs ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(TraceContext{TraceID: s.trace, Parent: s.id}, name, attrs, 0)
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

// End finishes the span and copies its record into the tracer's ring.
// Extra End calls are ignored.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.attrMu.Lock()
	attrs := s.attrs
	s.attrMu.Unlock()
	s.t.record(s, attrs, time.Since(s.start))
}

// record copies a finished span into the ring slot at head, its attributes
// into the slot's own storage.
func (t *Tracer) record(s *Span, attrs []Label, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.roomy {
		room := make([]Label, len(t.ring)*ringAttrRoom)
		for i := range t.ring {
			t.ring[i].Attrs = room[i*ringAttrRoom : i*ringAttrRoom : (i+1)*ringAttrRoom]
		}
		t.roomy = true
	}
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	r := &t.ring[t.head]
	*r = SpanRecord{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name, Attrs: append(r.Attrs[:0], attrs...),
		Start: s.start, Dur: dur,
	}
	t.head = (t.head + 1) % len(t.ring)
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil || t.noop {
		return nil
	}
	return t.retained(TraceID{})
}

// retained copies out the retained spans of trace id (every span for the
// zero id), oldest first. Their attributes are copied too, under the lock:
// a ring slot's storage belongs to whichever span lands in it next.
func (t *Tracer) retained(id TraceID) []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	if id.IsZero() {
		out = make([]SpanRecord, 0, t.n)
	}
	nattrs := 0
	start := (t.head - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		if r := &t.ring[(start+i)%len(t.ring)]; id.IsZero() || r.Trace == id {
			out = append(out, *r)
			nattrs += len(r.Attrs)
		}
	}
	attrs := make([]Label, 0, nattrs)
	for i := range out {
		rec := &out[i]
		if len(rec.Attrs) == 0 {
			rec.Attrs = nil
			continue
		}
		lo := len(attrs)
		attrs = append(attrs, rec.Attrs...)
		rec.Attrs = attrs[lo:len(attrs):len(attrs)]
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

// spanStackDepth is how deep a SpanStack nests: a request's root span, the
// lifecycle stage in progress under it, and the kernel the stage runs.
const spanStackDepth = 3

// SpanStack is one request's span storage: its root span and the spans open
// under it, one slot per depth, started in place instead of on the heap. A
// slot is reused by the next span at its depth once its span has ended —
// End copied the record into the tracer's ring, so nothing retained aliases
// it. The innermost open span is the stack's active span; a context that
// keeps its spans in a stack serves it through ContextValue, so
// SpanFromContext and StartChild find it. A stack belongs to one request at
// a time: Reset hands it to the next.
type SpanStack struct {
	slots [spanStackDepth]Span
}

// Start begins the stack's root span, as StartWithTrace does, in its first
// slot. Nil, with nothing started, when t records nothing.
func (st *SpanStack) Start(t *Tracer, tc TraceContext, name string, attrs ...Label) *Span {
	if t == nil || t.noop {
		return nil
	}
	s := &st.slots[0]
	s.begin(t, tc, name, attrs)
	return s
}

// depth is the slot of the active span, -1 when no span is open.
func (st *SpanStack) depth() int {
	for i := len(st.slots) - 1; i >= 0; i-- {
		if s := &st.slots[i]; s.t != nil && !s.ended.Load() {
			return i
		}
	}
	return -1
}

// Active returns the innermost open span, nil when none is open.
func (st *SpanStack) Active() *Span {
	if d := st.depth(); d >= 0 {
		return &st.slots[d]
	}
	return nil
}

// Child begins a span under the active span in the slot below it. Nil when
// no span is open or the active span is in the last slot.
func (st *SpanStack) Child(name string, attrs ...Label) *Span {
	d := st.depth()
	if d < 0 || d+1 == len(st.slots) {
		return nil
	}
	p, c := &st.slots[d], &st.slots[d+1]
	c.begin(p.t, TraceContext{TraceID: p.trace, Parent: p.id}, name, attrs)
	return c
}

// Reset hands the stack to its next request: every slot is marked ended, so
// a span left open is dropped rather than recorded, and under go test is
// poisoned first, so a span kept past its request names no request's trace.
func (st *SpanStack) Reset() {
	for i := range st.slots {
		s := &st.slots[i]
		s.ended.Store(true)
		if testing.Testing() {
			s.poison()
		}
		s.t = nil
	}
}

// poisonID is the span and parent ID of a poisoned slot.
const poisonID = ^uint64(0)

// poison overwrites an ended slot with values no span holds.
func (s *Span) poison() {
	s.id, s.parent, s.name, s.start = poisonID, poisonID, "poisoned", time.Time{}
	for i := range s.trace {
		s.trace[i] = 0xff
	}
	attrs := s.attrs[:cap(s.attrs)]
	for i := range attrs {
		attrs[i] = Label{Key: "poisoned", Value: "poisoned"}
	}
}
