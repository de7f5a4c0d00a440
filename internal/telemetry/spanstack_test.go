package telemetry

import (
	"context"
	"slices"
	"testing"
)

// stackCtx is a context that keeps its spans in a SpanStack, as a pooled
// request trace does.
type stackCtx struct {
	context.Context
	st *SpanStack
}

func (c *stackCtx) Value(key any) any {
	if v, ok := c.st.ContextValue(key); ok {
		return v
	}
	return c.Context.Value(key)
}

// TestSpanStackNesting: a stack's spans record the same tree heap spans
// would — root, a child per depth, each parented on the active span — and
// a slot is reused by the next span at its depth once its span has ended.
func TestSpanStackNesting(t *testing.T) {
	tr := NewTracer(64)
	var st SpanStack
	tc := TraceContext{TraceID: TraceID{1}, Parent: 7}
	ctx := &stackCtx{context.Background(), &st}
	root := st.Start(tr, tc, "root", L("endpoint", "x"))
	for i := 0; i < 2; i++ {
		stage := st.Child("stage")
		if st.Active() != stage || SpanFromContext(ctx) != stage {
			t.Fatalf("round %d: the stage is not the active span", i)
		}
		kctx, kernel := StartChild(ctx, "kernel")
		if kctx != context.Context(ctx) || kernel != &st.slots[2] {
			t.Fatalf("round %d: the kernel span did not start in the stack", i)
		}
		// The stack is full: the next span is a heap child, bound on a
		// context of its own so its children nest under it.
		pctx, par := StartChild(kctx, "par")
		if par == nil || par == &st.slots[2] || SpanFromContext(pctx) != par {
			t.Fatalf("round %d: a span below a full stack was not a heap child", i)
		}
		par.End()
		kernel.End()
		stage.End()
	}
	root.SetAttr("status", "200")
	root.End()
	if st.Active() != nil {
		t.Fatal("a span is active after every span ended")
	}
	spans := tr.TraceSpans(tc.TraceID)
	if len(spans) != 7 {
		t.Fatalf("recorded %d spans, want 7", len(spans))
	}
	byName := map[string][]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	r := byName["root"][0]
	if r.Parent != 7 || !slices.Equal(r.Attrs, []Label{L("endpoint", "x"), L("status", "200")}) {
		t.Fatalf("root record %+v", r)
	}
	for i := 0; i < 2; i++ {
		stage, kernel, par := byName["stage"][i], byName["kernel"][i], byName["par"][i]
		if stage.Parent != r.ID || kernel.Parent != stage.ID || par.Parent != kernel.ID {
			t.Fatalf("round %d: parents stage %d kernel %d par %d, want %d %d %d", i, stage.Parent, kernel.Parent, par.Parent, r.ID, stage.ID, kernel.ID)
		}
	}
	if byName["stage"][0].ID == byName["stage"][1].ID {
		t.Fatal("a reused slot kept its span ID")
	}
}

// TestSpanStackAllocationFree: a request's span lifecycle in a stack —
// root, stage, kernel, attributes, ends, reset — allocates nothing once the
// stack and the ring have their room.
func TestSpanStackAllocationFree(t *testing.T) {
	tr := NewTracer(64)
	var st SpanStack
	ctx := &stackCtx{context.Background(), &st}
	tc := TraceContext{TraceID: TraceID{2}}
	allocs := testing.AllocsPerRun(200, func() {
		root := st.Start(tr, tc, "root", L("endpoint", "x"))
		stage := st.Child("stage", L("kernel", "khop"))
		_, kernel := StartChild(ctx, "kernel")
		kernel.End()
		stage.End()
		root.SetAttr("status", "200")
		root.SetAttr("cache", "hit")
		root.End()
		st.Reset()
	})
	if allocs != 0 {
		t.Fatalf("span stack lifecycle allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestSpanStackResetPoisons: under go test a span kept past its stack's
// Reset names no request's trace, and ending or annotating it records
// nothing.
func TestSpanStackResetPoisons(t *testing.T) {
	tr := NewTracer(8)
	var st SpanStack
	root := st.Start(tr, TraceContext{TraceID: TraceID{3}}, "root", L("k", "v"))
	st.Reset()
	var allFF TraceID
	for i := range allFF {
		allFF[i] = 0xff
	}
	if root.ID() != poisonID || root.Trace() != allFF || root.attrs[0].Key != "poisoned" {
		t.Fatalf("kept span reads id %x trace %s attrs %v, want poison", root.ID(), root.Trace(), root.attrs)
	}
	root.SetAttr("late", "x")
	root.End()
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("a span ended after Reset recorded %d spans", n)
	}
	if st.Active() != nil || st.Child("stage") != nil {
		t.Fatal("a reset stack still has an active span")
	}
}

// TestRetainedSpansOwnTheirAttrs: records handed out by Snapshot and
// TraceSpans keep their attributes while the ring slots they were copied
// from take later spans', and appending to one record's attributes leaves
// its neighbour's alone.
func TestRetainedSpansOwnTheirAttrs(t *testing.T) {
	tr := NewTracer(2)
	id := TraceID{4}
	tr.StartWithTrace(TraceContext{TraceID: id}, "a", L("k", "a1"), L("j", "a2")).End()
	tr.StartWithTrace(TraceContext{TraceID: id}, "b", L("k", "b1")).End()
	snap, mine := tr.Snapshot(), tr.TraceSpans(id)
	want := []Label{L("k", "a1"), L("j", "a2")}
	for i := 0; i < 10; i++ {
		tr.Start("later", L("k", "overwritten"), L("j", "overwritten")).End()
	}
	for _, recs := range [][]SpanRecord{snap, mine} {
		if len(recs) != 2 || !slices.Equal(recs[0].Attrs, want) || !slices.Equal(recs[1].Attrs, []Label{L("k", "b1")}) {
			t.Fatalf("retained records changed under later spans: %+v", recs)
		}
	}
	_ = append(snap[0].Attrs, L("x", "y"))
	if snap[1].Attrs[0] != L("k", "b1") {
		t.Fatalf("appending to one record's attributes overwrote the next: %v", snap[1].Attrs)
	}
}

// TestDetachedParent: spans started under a detached stand-in join its
// trace under its ID, and the stand-in itself records nothing.
func TestDetachedParent(t *testing.T) {
	tr := NewTracer(8)
	tc := TraceContext{TraceID: TraceID{5}, Parent: 42}
	d := tr.Detached(tc)
	_, child := StartChild(ContextWithSpan(context.Background(), d), "build")
	child.End()
	d.End()
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "build" || spans[0].Parent != 42 || spans[0].Trace != tc.TraceID {
		t.Fatalf("spans under a detached parent = %+v", spans)
	}
	if Nop().Tracer().Detached(tc) != nil {
		t.Fatal("a disabled tracer made a detached span")
	}
}

// TestTraceparentAllocatesOnce: rendering the header costs its string and
// nothing else.
func TestTraceparentAllocatesOnce(t *testing.T) {
	tc := TraceContext{TraceID: TraceID{6}, Parent: 9}
	var h string
	if n := testing.AllocsPerRun(100, func() { h = tc.Traceparent() }); n != 1 {
		t.Fatalf("Traceparent allocated %.1f times, want 1", n)
	}
	if h != "00-06000000000000000000000000000000-0000000000000009-01" {
		t.Fatalf("Traceparent = %q", h)
	}
}
