package telemetry

import (
	"context"
	"testing"
)

// TestDisabledTracerAllocationFree gates the no-op observability path: with
// a Nop registry, the whole span lifecycle a traced request would execute —
// root start, context plumbing, child spans, attributes, end — must not
// allocate, so always-on instrumentation costs untraced hot paths nothing
// but predictable branches. CI runs this test; a regression here is a
// hot-path regression for every kernel.
func TestDisabledTracerAllocationFree(t *testing.T) {
	tr := Nop().Tracer()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartWithTrace(TraceContext{}, "op")
		c := ContextWithSpan(ctx, sp)
		child := SpanFromContext(c).Child("child")
		child.SetAttr("k", "v")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestNilTracerAllocationFree covers the nil-receiver form of the same
// contract (a nil *Tracer is legal everywhere a disabled one is).
func TestNilTracerAllocationFree(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Start("op")
		sp.SetAttr("k", "v")
		sp.Child("child").End()
		sp.End()
		_ = tr.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestRegistryLookupAllocationFree: request paths resolve labeled handles
// per call (server countQuery, stageObserve, cacheHit), so a lookup that
// finds an existing metric must not allocate, for every kind, with zero to
// three labels, whatever order the labels come in.
func TestRegistryLookupAllocationFree(t *testing.T) {
	r := NewRegistry()
	a, b, c := L("op", "component"), L("code", "200"), L("endpoint", "pagerank")
	orders := [][]Label{
		nil,
		{a},
		{a, b}, {b, a},
		{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a},
	}
	for _, ls := range orders {
		r.Counter("lookup_counter", ls...) // the first registration allocates
		r.Gauge("lookup_gauge", ls...)
		r.Histogram("lookup_hist", ls...)
	}
	for _, ls := range orders {
		want := r.Counter("lookup_counter", ls...)
		allocs := testing.AllocsPerRun(100, func() {
			if r.Counter("lookup_counter", ls...) != want {
				panic("counter lookup returned another handle")
			}
			r.Gauge("lookup_gauge", ls...).Set(1)
			r.Histogram("lookup_hist", ls...).Observe(1)
		})
		if allocs != 0 {
			t.Errorf("lookup hit with labels %v allocated %.1f per run, want 0", ls, allocs)
		}
	}
	// Labels are an identity, not a sequence: every order is one metric.
	if n := len(r.Snapshot()); n != 3*4 {
		t.Fatalf("registry holds %d metrics, want 12 (3 kinds x 4 label sets)", n)
	}
}

// BenchmarkRegistryLookup is the per-request cost of resolving a labeled
// handle that already exists (the server's countQuery shape).
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	op, code := L("op", "component"), L("code", "200")
	r.Counter("server_queries_total", op, code)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("server_queries_total", code, op).Inc()
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	tr := Nop().Tracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("op")
		sp.SetAttr("k", "v")
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("op")
		sp.SetAttr("k", "v")
		sp.End()
	}
}

func BenchmarkSpanEnabledChild(b *testing.B) {
	tr := NewTracer(4096)
	tc := NewTraceContext()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartWithTrace(tc, "op")
		sp.Child("child").End()
		sp.End()
	}
}

func BenchmarkParseTraceparent(b *testing.B) {
	tc := NewTraceContext()
	tc.Parent = 0x00f067aa0ba902b7
	h := tc.Traceparent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseTraceparent(h); !ok {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkTraceparentFormat(b *testing.B) {
	tc := NewTraceContext()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tc.Traceparent()
	}
}
