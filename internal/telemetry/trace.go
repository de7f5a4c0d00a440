package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync/atomic"
)

// Request-scoped trace identity: a 128-bit trace ID shared by every span a
// request produces, carried across process boundaries as a W3C
// `traceparent` header (https://www.w3.org/TR/trace-context/) and inside
// the process on context.Context. The span tracer stamps each SpanRecord
// with its trace ID, so the retained ring can be re-assembled into one
// parent→child tree per request after the fact (TraceSpans + BuildSpanTree,
// served at /debug/trace/{id}).

// TraceID is a 128-bit request-scoped trace identifier. The zero value
// means "no trace" (per W3C trace-context, an all-zero trace-id is invalid).
type TraceID [16]byte

// IsZero reports whether the trace ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the trace ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses 32 hex characters into a TraceID. The second result
// is false for malformed or all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// TraceContext is the cross-process trace identity extracted from (or
// emitted as) a W3C traceparent header: which trace a request belongs to
// and which remote span is the parent of whatever this process does next.
type TraceContext struct {
	// TraceID identifies the whole request tree across processes.
	TraceID TraceID
	// Parent is the caller's span ID (0 when this process starts the trace).
	Parent uint64
}

// traceSeq disambiguates locally generated trace IDs if the random source
// ever returns identical bytes within a process lifetime.
var traceSeq atomic.Uint64

// NewTraceContext mints a fresh trace identity with a random 128-bit trace
// ID and no parent — used when a request arrives without a traceparent
// header.
func NewTraceContext() TraceContext {
	var tc TraceContext
	if _, err := rand.Read(tc.TraceID[:]); err != nil || tc.TraceID.IsZero() {
		// Degraded randomness still yields unique, valid (non-zero) IDs.
		binary.BigEndian.PutUint64(tc.TraceID[8:], traceSeq.Add(1))
		tc.TraceID[0] = 0xfe
	}
	return tc
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). The second
// result is false when the header is absent or malformed (wrong shape,
// unknown version with short form, all-zero trace or parent ID).
func ParseTraceparent(h string) (TraceContext, bool) {
	// version(2) '-' traceid(32) '-' parentid(16) '-' flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if !isHex(h[:2]) || h[:2] == "ff" {
		return TraceContext{}, false
	}
	if len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return TraceContext{}, false
	}
	id, ok := ParseTraceID(h[3:35])
	if !ok {
		return TraceContext{}, false
	}
	if !isHex(h[53:55]) {
		return TraceContext{}, false
	}
	var pb [8]byte
	if _, err := hex.Decode(pb[:], []byte(h[36:52])); err != nil {
		return TraceContext{}, false
	}
	parent := binary.BigEndian.Uint64(pb[:])
	if parent == 0 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: id, Parent: parent}, true
}

// Traceparent renders the context as a W3C traceparent header value with
// the sampled flag set. Parent renders as the 16-hex-digit parent-id field.
// The header is built in a fixed array, so the string is the one
// allocation.
func (tc TraceContext) Traceparent() string {
	var pb [8]byte
	binary.BigEndian.PutUint64(pb[:], tc.Parent)
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], tc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], pb[:])
	copy(b[52:], "-01")
	return string(b[:])
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// spanCtxKey keys the active span on a context.Context.
type spanCtxKey struct{}

// spanStackKey keys the SpanStack a context keeps its spans in.
type spanStackKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span, so lower
// layers (kernel ctx variants, the par scheduler) can attach child spans to
// the request that called them. A nil sp returns ctx unchanged, keeping the
// disabled-tracer path allocation-free.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span carried by ctx, or nil when the
// request is untraced. The nil result is safe to use directly: all Span
// methods no-op on a nil receiver.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextValue answers, for a context that keeps its spans in st, the
// context keys the stack serves: the active span (SpanFromContext) and the
// stack itself (StartChild). Such a context consults it from its Value
// before its parent; ok is false for any other key, and for the span key
// while no span of st is open.
func (st *SpanStack) ContextValue(key any) (v any, ok bool) {
	switch key.(type) {
	case spanCtxKey:
		if sp := st.Active(); sp != nil {
			return sp, true
		}
	case spanStackKey:
		return st, true
	}
	return nil, false
}

// StartChild begins a span under ctx's active span and returns a context
// with the new span active. When ctx keeps its spans in a SpanStack whose
// active span that is, the span starts in the stack's next slot and ctx
// itself comes back, now answering the new span: nothing allocates. Any
// other context, or a full stack, gets a heap child bound by
// ContextWithSpan. Untraced, it costs nothing: ctx and a nil span.
func StartChild(ctx context.Context, name string, attrs ...Label) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	if st, _ := ctx.Value(spanStackKey{}).(*SpanStack); st != nil && st.Active() == parent {
		if sp := st.Child(name, attrs...); sp != nil {
			return ctx, sp
		}
	}
	sp := parent.Child(name, attrs...)
	return ContextWithSpan(ctx, sp), sp
}

// TraceSpans returns the retained spans belonging to one trace, oldest
// first. An evicted ring may hold only a suffix of the request's spans.
func (t *Tracer) TraceSpans(id TraceID) []SpanRecord {
	if t == nil || t.noop || id.IsZero() {
		return nil
	}
	return t.retained(id)
}

// SpanTree is one span with its children nested, as assembled from the
// flat retained records.
type SpanTree struct {
	SpanRecord
	// Children are the spans whose Parent is this span's ID, in start order.
	Children []*SpanTree
}

// BuildSpanTree assembles flat span records into parent→child trees. A span
// whose parent is not among the records (a true root, or an orphan whose
// parent was evicted from the ring or belongs to another process) becomes a
// root. Roots and children are ordered by start time.
func BuildSpanTree(spans []SpanRecord) []*SpanTree {
	nodes := make(map[uint64]*SpanTree, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanTree{SpanRecord: s}
	}
	var roots []*SpanTree
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ts []*SpanTree) {
		sort.SliceStable(ts, func(i, j int) bool { return ts[i].Start.Before(ts[j].Start) })
	}
	byStart(roots)
	for _, n := range nodes {
		byStart(n.Children)
	}
	return roots
}
