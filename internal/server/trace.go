package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/reqscratch"
	"repro/internal/telemetry"
)

// Request lifecycle tracing. Every request gets a W3C trace identity
// (accepted from, and echoed as, a `traceparent` header), a root span, and
// a sequence of named, non-overlapping lifecycle stages — admission,
// snapshot, kernel, encode, plus whatever the endpoint adds — each recorded
// as a child span and as a server_stage_seconds{endpoint,stage} histogram
// observation. The wrapper closes the accounting by observing the
// still-unattributed remainder as stage="other", so for every endpoint the
// stage family sums to the request wall time by construction. Requests
// slower than Config.SlowQueryThreshold additionally have their assembled
// span tree retained in a bounded ring (/debug/slowqueries) and appended to
// Config.SlowQueryOut as JSON lines.

// traceCtxKey keys the request's TraceContext in the request context.
type traceCtxKey struct{}

// reqTraceKey keys the in-flight request trace state in the request context.
type reqTraceKey struct{}

// stageDur is one finished lifecycle stage of a request.
type stageDur struct {
	Name  string `json:"stage"`
	DurNs int64  `json:"dur_ns"`
}

// reqTrace is the per-request lifecycle accumulator: the root span, the
// trace identity, and the finished stages in order. It is written only by
// the request's handler goroutine.
type reqTrace struct {
	s      *Server
	op     string
	tc     telemetry.TraceContext
	root   *telemetry.Span
	start  time.Time
	stages []stageDur
	scr    *reqscratch.Scratch // result storage, borrowed by scratch(), returned by finish

	// pinned are the bundles the request reads until finish (see
	// Server.read), in pinBuf's storage.
	pinned []*bundle
	pinBuf [2]*bundle
}

// traceFrom returns the request trace carried by ctx, or nil when the
// request is untraced (nil is safe: stage() on a nil receiver is a no-op).
func traceFrom(ctx context.Context) *reqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// noopEnd is the shared do-nothing stage closer for untraced requests.
func noopEnd() {}

// stage begins a named lifecycle stage: a child span under the request's
// root plus a wall-clock timer. The returned func ends the stage, recording
// the span, the stage histogram observation, and the stage's entry in the
// request's stage list. Stages are expected to be sequential and
// non-overlapping so their durations sum to attributable request time.
func (rt *reqTrace) stage(name string, attrs ...telemetry.Label) func() {
	if rt == nil {
		return noopEnd
	}
	sp := rt.root.Child("stage."+name, attrs...)
	t0 := time.Now()
	return func() { rt.endStage(sp, name, t0) }
}

// stageCtx is stage with the stage's span installed as ctx's active span, so
// kernel spans (and the scheduler spans beneath them) nest under the stage
// they are attributed to rather than directly under the root.
func (rt *reqTrace) stageCtx(ctx context.Context, name string, attrs ...telemetry.Label) (context.Context, func()) {
	if rt == nil {
		return ctx, noopEnd
	}
	sp := rt.root.Child("stage."+name, attrs...)
	t0 := time.Now()
	return telemetry.ContextWithSpan(ctx, sp), func() { rt.endStage(sp, name, t0) }
}

// endStage closes one stage opened by stage/stageCtx: the span, the stage
// histogram observation, and the request's ordered stage list.
func (rt *reqTrace) endStage(sp *telemetry.Span, name string, t0 time.Time) {
	d := time.Since(t0)
	sp.End()
	rt.stages = append(rt.stages, stageDur{Name: name, DurNs: d.Nanoseconds()})
	rt.s.stageObserve(rt.op, name, d)
}

// finish closes the request's lifecycle accounting: the unattributed
// remainder of the wall time is observed as stage="other" (so the stage
// family sums to wall time), the root span ends, and the request is offered
// to the slow-query log. It also ends the life of the request's results:
// the scratch they alias goes back to the pool and the bundles they alias
// are unpinned, so callers encode first.
func (rt *reqTrace) finish(code int, wall time.Duration) {
	if rt == nil {
		return
	}
	if scr := rt.scr; scr != nil {
		rt.scr = nil
		reqscratch.Put(scr)
	}
	for _, b := range rt.pinned {
		b.unpin()
	}
	rt.pinned = rt.pinned[:0]
	var attributed time.Duration
	for _, st := range rt.stages {
		attributed += time.Duration(st.DurNs)
	}
	if other := wall - attributed; other > 0 {
		rt.stages = append(rt.stages, stageDur{Name: "other", DurNs: other.Nanoseconds()})
		rt.s.stageObserve(rt.op, "other", other)
	}
	rt.root.End()
	if rt.s.slow.offer(rt, code, wall) {
		// A slow query is a profiling trigger: capture the process in the
		// act, stamped with this request's trace. Nil-safe and rate-limited;
		// a sustained slow spell costs one bundle per MinInterval.
		rt.s.prof.Trigger("slowquery:"+rt.op, []telemetry.TraceID{rt.tc.TraceID})
	}
}

// stageObserve records one lifecycle stage latency into the
// server_stage_seconds{endpoint,stage} family.
func (s *Server) stageObserve(endpoint, stage string, d time.Duration) {
	s.reg.Histogram("server_stage_seconds",
		telemetry.L("endpoint", endpoint), telemetry.L("stage", stage)).ObserveDuration(d)
}

// startTrace builds the per-request trace state for one op, for any
// transport: the root span joins the trace identity already on ctx (minted
// by the caller when the transport has no inbound identity), the upgraded
// traceparent — carrying the root span's ID — is offered to echo when
// non-nil, and the returned context carries both the reqTrace (for stage
// attribution) and the root span (for kernel/scheduler child spans).
func (s *Server) startTrace(ctx context.Context, echo func(traceparent string), op string, start time.Time) (context.Context, *reqTrace) {
	tc, _ := ctx.Value(traceCtxKey{}).(telemetry.TraceContext)
	root := s.reg.Tracer().StartWithTrace(tc, "server."+op, telemetry.L("endpoint", op))
	if root != nil && echo != nil {
		echo(telemetry.TraceContext{TraceID: tc.TraceID, Parent: root.ID()}.Traceparent())
	}
	rt := &reqTrace{s: s, op: op, tc: tc, root: root, start: start}
	rt.pinned = rt.pinBuf[:0]
	ctx = context.WithValue(ctx, reqTraceKey{}, rt)
	ctx = telemetry.ContextWithSpan(ctx, root)
	return ctx, rt
}

// startRequestTrace is startTrace for the HTTP transport: the upgraded
// traceparent is echoed as a response header.
func (s *Server) startRequestTrace(ctx context.Context, w http.ResponseWriter, op string, start time.Time) (context.Context, *reqTrace) {
	return s.startTrace(ctx, func(tp string) { w.Header().Set("traceparent", tp) }, op, start)
}

// traceHeaders is the outermost middleware: it parses the request's W3C
// traceparent header (minting a fresh trace ID when absent or malformed),
// echoes the trace identity on the response so callers can correlate logs
// with /debug/trace/{id}, and stores it in the request context for the
// per-endpoint tracing to join.
func (s *Server) traceHeaders(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tc = telemetry.NewTraceContext()
		}
		echo := tc
		if echo.Parent == 0 {
			echo.Parent = 1 // keep the echoed header well-formed (parent-id must be nonzero)
		}
		w.Header().Set("traceparent", echo.Traceparent())
		ctx := context.WithValue(r.Context(), traceCtxKey{}, tc)
		next.ServeHTTP(w, r.WithContext(ctx))
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

// newSlowLog sizes the ring (default 128 records) and attaches the
// optional sink. A zero threshold disables capture entirely.
func newSlowLog(threshold time.Duration, ringSize int, out io.Writer, reg *telemetry.Registry) *slowLog {
	if ringSize <= 0 {
		ringSize = 128
	}
	sl := &slowLog{threshold: threshold, reg: reg, ring: make([]SlowQuery, ringSize)}
	if out != nil {
		sl.out = json.NewEncoder(out)
	}
	return sl
}

// offer records the request if it crossed the slow threshold, reporting
// whether it did (the caller's profiling-trigger signal). The span tree
// is assembled from the tracer ring at record time, so it must run after
// the root span ended.
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
		Stages:   rt.stages,
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
func (s *Server) handleSlowQueries(w http.ResponseWriter, _ *http.Request) {
	recs := s.slow.snapshotRecords()
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": s.cfg.SlowQueryThreshold.Nanoseconds(),
		"count":        len(recs),
		"slow_queries": recs,
	})
}
