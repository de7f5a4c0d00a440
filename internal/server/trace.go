package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/reqscratch"
	"repro/internal/scratch"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Request lifecycle tracing. Every request gets a W3C trace identity
// (accepted from, and echoed as, a `traceparent` header), a root span, and
// a sequence of named, non-overlapping lifecycle stages — admission,
// snapshot, kernel, encode, plus whatever the endpoint adds — each recorded
// as a child span and as a server_stage_seconds{endpoint,stage} histogram
// observation. The front end closes the accounting by observing the
// still-unattributed remainder as stage="other", so for every endpoint the
// stage family sums to the request wall time by construction. Requests
// slower than the slow-query threshold additionally have their assembled
// span tree retained in a bounded ring (/debug/slowqueries) and appended to
// Config.SlowQueryOut as JSON lines.

// reqTraceKey keys the in-flight request trace state in the request context.
type reqTraceKey struct{}

// stageDur is one finished lifecycle stage of a request.
type stageDur struct {
	Name  string `json:"stage"`
	DurNs int64  `json:"dur_ns"`
}

// reqTrace is the per-request lifecycle accumulator — the trace identity,
// the root, stage and kernel spans, the finished stages in order, the
// result storage — and the request's context.Context (reqctx.go). It is
// written only by the request's handler goroutine, and pooled: finish is
// its last use, so nothing on the hot path allocates once a pooled trace
// has grown to the request's size.
type reqTrace struct {
	fe     *frontEnd
	op     string
	tc     telemetry.TraceContext
	root   *telemetry.Span // spans' root; nil when the tracer is disabled
	spans  telemetry.SpanStack
	start  time.Time
	stages []stageDur
	scr    reqscratch.Scratch // result storage, reset by finish
	req    wire.Request       // the HTTP front end's parsed request
	echo   [1]string          // the HTTP response's traceparent header value

	// pinned are the bundles a graphd request reads until finish (see
	// Server.read).
	pinned []*bundle

	reqCtx
}

// tracePool recycles request traces with their stage and pin lists and
// their result storage. The result buffers start non-nil so an empty result
// still encodes as [] in JSON.
var tracePool = scratch.NewPool(func() *reqTrace {
	return &reqTrace{
		stages: make([]stageDur, 0, 8),
		pinned: make([]*bundle, 0, 2),
		scr:    reqscratch.Scratch{Verts: make([]int32, 0, 1024), Pairs: make([]wire.JaccardPair, 0, 256), Top: make([]wire.ScoredVertex, 0, wire.DefaultTopK)},
	}
})

// traceFrom returns the request trace carried by ctx, or nil when the
// request is untraced (nil is safe: stage() on a nil receiver is a no-op).
func traceFrom(ctx context.Context) *reqTrace {
	if rt, ok := ctx.(*reqTrace); ok {
		return rt
	}
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// spanNames holds the root span name of every endpoint ("server."+op) and
// the span name of every lifecycle stage ("stage."+name), made once so that
// naming one allocates nothing.
var spanNames = func() map[string]string {
	m := map[string]string{}
	for op := wire.OpPing; op <= wire.OpShardAdj; op++ {
		m["server."+wire.OpName(op)] = "server." + wire.OpName(op)
	}
	for _, st := range []string{"admission", "read", "decode", "enqueue", "snapshot", "kernel", "cluster", "encode"} {
		m["stage."+st] = "stage." + st
	}
	return m
}()

// spanName returns prefix+name, without allocating when spanNames has it.
func spanName(prefix, name string) string {
	if s, ok := spanNames[prefix+name]; ok {
		return s
	}
	return prefix + name
}

// stage is one lifecycle stage in progress: a child span under the
// request's root plus a wall-clock timer. Stages are expected to be
// sequential and non-overlapping so their durations sum to attributable
// request time. The zero stage (an untraced request's) ends as a no-op.
type stage struct {
	rt   *reqTrace
	sp   *telemetry.Span
	name string
	t0   time.Time
}

// stage begins a named lifecycle stage. Its span starts in the trace's
// stage slot and is the request's active span until it ends, so kernel
// spans (and the scheduler spans beneath them) nest under the stage they
// are attributed to rather than directly under the root.
func (rt *reqTrace) stage(name string, attrs ...telemetry.Label) stage {
	if rt == nil {
		return stage{}
	}
	return stage{rt: rt, sp: rt.spans.Child(spanName("stage.", name), attrs...), name: name, t0: time.Now()}
}

// end closes the stage: the span, the stage histogram observation, and the
// request's ordered stage list.
func (st stage) end() {
	if st.rt == nil {
		return
	}
	d := time.Since(st.t0)
	st.sp.End()
	st.rt.stages = append(st.rt.stages, stageDur{Name: st.name, DurNs: d.Nanoseconds()})
	st.rt.fe.stageObserve(st.rt.op, st.name, d)
}

// finish closes the request's lifecycle accounting: the unattributed
// remainder of the wall time is observed as stage="other" (so the stage
// family sums to wall time), the root span ends, and the request is offered
// to the slow-query log. It also ends the life of everything the request
// lent out: the scratch its results alias is reset, the bundles they alias
// are unpinned, its spans are handed on and its context ends, so callers
// encode first. rt itself goes back to its pool.
func (rt *reqTrace) finish(code int, wall time.Duration) {
	if rt == nil {
		return
	}
	rt.scr.Reset()
	for _, b := range rt.pinned {
		b.unpin()
	}
	clear(rt.pinned)
	rt.pinned = rt.pinned[:0]
	var attributed time.Duration
	for _, st := range rt.stages {
		attributed += time.Duration(st.DurNs)
	}
	if other := wall - attributed; other > 0 {
		rt.stages = append(rt.stages, stageDur{Name: "other", DurNs: other.Nanoseconds()})
		rt.fe.stageObserve(rt.op, "other", other)
	}
	rt.root.End()
	if rt.fe.slow.offer(rt, code, wall) {
		// A slow query is a profiling trigger: capture the process in the
		// act, stamped with this request's trace. Nil-safe and rate-limited;
		// a sustained slow spell costs one bundle per MinInterval.
		rt.fe.prof.Trigger("slowquery:"+rt.op, []telemetry.TraceID{rt.tc.TraceID})
	}
	rt.spans.Reset()
	rt.endCtx()
	rt.root, rt.stages = nil, rt.stages[:0]
	tracePool.Put(rt)
}

// stageObserve records one lifecycle stage latency into the
// server_stage_seconds{endpoint,stage} family.
func (fe *frontEnd) stageObserve(endpoint, stage string, d time.Duration) {
	fe.reg.Histogram("server_stage_seconds",
		telemetry.L("endpoint", endpoint), telemetry.L("stage", stage)).ObserveDuration(d)
}

// startTrace builds the per-request trace state for one op, for any
// transport: the root span joins the trace identity tc (minted by the
// caller when the transport carries none), and the trace, which is the
// request's context from here to finish, answers both itself (for stage
// attribution) and its active span (for kernel and scheduler child spans)
// beneath parent. It has no deadline of its own until the caller sets one
// (reqCtx.arm).
func (fe *frontEnd) startTrace(parent context.Context, tc telemetry.TraceContext, op string, start time.Time) *reqTrace {
	rt := tracePool.Get()
	rt.fe, rt.op, rt.tc, rt.start = fe, op, tc, start
	rt.parent = parent
	rt.root = rt.spans.Start(fe.reg.Tracer(), tc, spanName("server.", op), telemetry.L("endpoint", op))
	return rt
}

// inboundTrace is an HTTP request's W3C trace identity: its traceparent
// header, or a fresh trace when the header is absent or malformed.
func inboundTrace(r *http.Request) telemetry.TraceContext {
	if h := r.Header["Traceparent"]; len(h) > 0 {
		if tc, ok := telemetry.ParseTraceparent(h[0]); ok {
			return tc
		}
	}
	return telemetry.NewTraceContext()
}

// echoValue is the traceparent a response answers with: the trace, with
// span (the request's root) as parent-id — the caller's parent-id, or 1,
// when there is no span, so the header stays well-formed.
func echoValue(tc telemetry.TraceContext, span uint64) string {
	if span != 0 {
		tc.Parent = span
	} else if tc.Parent == 0 {
		tc.Parent = 1
	}
	return tc.Traceparent()
}

// echoTrace sets the response's traceparent header, its value slice the
// pooled trace's own: net/http copies the header map when the handler
// writes the status, before finish hands the trace on.
func (rt *reqTrace) echoTrace(w http.ResponseWriter) {
	rt.echo[0] = echoValue(rt.tc, rt.root.ID())
	w.Header()["Traceparent"] = rt.echo[:]
}

// untraced wraps an endpoint the front end does not trace so that it still
// answers with the caller's trace identity, as every endpoint does: callers
// can correlate any response with /debug/trace/{id}.
func untraced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Traceparent"] = []string{echoValue(inboundTrace(r), 0)}
		h.ServeHTTP(w, r)
	})
}

// SlowQuery is one retained slow-request record: identity, outcome, the
// per-stage latency decomposition, and the request's assembled span tree
// (empty when the tracer is disabled or the ring has already evicted it).
type SlowQuery struct {
	// Time is when the request finished.
	Time time.Time `json:"time"`
	// Endpoint is the endpoint label ("component", "ingest", ...).
	Endpoint string `json:"endpoint"`
	// Trace is the request's 32-hex-char trace ID.
	Trace string `json:"trace"`
	// Code is the HTTP status the request was answered with.
	Code int `json:"code"`
	// WallNs is the end-to-end request wall time.
	WallNs int64 `json:"wall_ns"`
	// Stages is the named latency decomposition, in stage order; the stage
	// durations sum to WallNs ("other" absorbs unattributed time).
	Stages []stageDur `json:"stages"`
	// Tree is the request's span tree as retained by the tracer.
	Tree telemetry.SpanTreeDump `json:"tree"`
}

// slowLog captures requests slower than a threshold: a bounded in-memory
// ring served at /debug/slowqueries plus an optional JSON-lines writer.
// All methods are safe for concurrent use and on a nil receiver.
type slowLog struct {
	threshold time.Duration
	reg       *telemetry.Registry

	mu   sync.Mutex
	ring []SlowQuery
	head int
	n    int
	out  *json.Encoder
}

// slowQueryRing is how many slow-query records the ring retains.
const slowQueryRing = 128

// newSlowLog sizes the ring and attaches the optional sink. A zero
// threshold disables capture entirely.
func newSlowLog(threshold time.Duration, out io.Writer, reg *telemetry.Registry) *slowLog {
	sl := &slowLog{threshold: threshold, reg: reg, ring: make([]SlowQuery, slowQueryRing)}
	if out != nil {
		sl.out = json.NewEncoder(out)
	}
	return sl
}

// offer records the request if it crossed the slow threshold, reporting
// whether it did (the caller's profiling-trigger signal). The record copies
// the stages, which the pooled trace reuses. The span tree is assembled from
// the tracer ring at record time, so offer must run after the root span
// ended.
func (sl *slowLog) offer(rt *reqTrace, code int, wall time.Duration) bool {
	if sl == nil || sl.threshold <= 0 || wall < sl.threshold || rt == nil {
		return false
	}
	rec := SlowQuery{
		Time:     time.Now(),
		Endpoint: rt.op,
		Trace:    rt.tc.TraceID.String(),
		Code:     code,
		WallNs:   wall.Nanoseconds(),
		Stages:   slices.Clone(rt.stages),
		Tree:     sl.reg.Tracer().TreeDump(rt.tc.TraceID),
	}
	sl.reg.Counter("server_slow_queries_total", telemetry.L("endpoint", rt.op)).Inc()
	sl.mu.Lock()
	sl.ring[sl.head] = rec
	sl.head = (sl.head + 1) % len(sl.ring)
	if sl.n < len(sl.ring) {
		sl.n++
	}
	enc := sl.out
	sl.mu.Unlock()
	if enc != nil {
		_ = enc.Encode(rec)
	}
	return true
}

// snapshotRecords returns the retained slow queries, oldest first.
func (sl *slowLog) snapshotRecords() []SlowQuery {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]SlowQuery, 0, sl.n)
	start := (sl.head - sl.n + len(sl.ring)) % len(sl.ring)
	for i := 0; i < sl.n; i++ {
		out = append(out, sl.ring[(start+i)%len(sl.ring)])
	}
	return out
}

// SlowQueries returns the retained slow-query records, oldest first (empty
// unless Config.SlowQueryThreshold is set).
func (s *Server) SlowQueries() []SlowQuery {
	return s.slow.snapshotRecords()
}

// handleSlowQueries serves the retained slow-query ring as JSON.
func (fe *frontEnd) handleSlowQueries(w http.ResponseWriter, _ *http.Request) {
	recs := fe.slow.snapshotRecords()
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": fe.slow.threshold.Nanoseconds(),
		"count":        len(recs),
		"slow_queries": recs,
	})
}
