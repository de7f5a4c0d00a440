package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The HTTP front end both binaries serve through: graphd over its published
// bundles, graphctl over a coordinator. One request path — query string to
// wire.Request, deadline, traceparent, the stage spans that sum to wall
// time, slow-query capture, error-to-status mapping, JSON encoding, ingest
// bodies, /query/batch, /stats, /healthz, /readyz and the server_* request
// families — and one answer path (answer.go) that checks every query and
// builds every answer, over a narrow backend that only reads state. graphd's
// wire sessions (serve_wire.go) run the same trace, dispatch, answer and
// batch core.

// backend is the state the front end answers from. Requests reach it
// checked: every vertex, seed, k and threshold in range.
type backend interface {
	// enter waits for an execution slot until ctx ends; leave returns it.
	// graphd admits against its worker budget; the coordinator admits
	// nothing, as each of its shards admits its own work.
	enter(ctx context.Context, rt *reqTrace) error
	leave()
	// whole reads, at one version, the whole-graph state op's answer needs:
	// component's labels and sizes, pagerank's ranks, topdegree's degrees.
	whole(ctx context.Context, rt *reqTrace, op byte) (whole, error)
	// khop appends the k-hop neighbourhood of seeds, in BFS discovery
	// order, to rt's scratch and returns it.
	khop(ctx context.Context, rt *reqTrace, seeds []int32, k int32) ([]int32, error)
	// jaccard ranks u's similar vertices at or above threshold into rt's
	// scratch and returns them, valid until the next jaccard.
	jaccard(ctx context.Context, rt *reqTrace, u int32, threshold float64) ([]kernels.JaccardPairScore, error)
	// exchange answers a shard-exchange op. They are graphd's, and arrive
	// only over its wire listener.
	exchange(ctx context.Context, rt *reqTrace, req *wire.Request) (any, error)
	// ingest admits decoded edits: the result and 202, 429 with the accepted
	// prefix, or 503 when the edits cannot all be taken; with no result, the
	// error and its status.
	ingest(rt *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error)
	// stats is the /stats payload; readiness the /readyz payload.
	stats() any
	readiness() wire.Readiness
}

// A query's deadline: defaultTimeout when the client sends none (no
// ?timeout=, or a zero wire timeout), else the client's, clamped to
// maxTimeout. One rule for both binaries and both transports.
const (
	defaultTimeout = 2 * time.Second
	maxTimeout     = 30 * time.Second
)

// resolveTimeout applies the deadline rule to a client deadline, 0 meaning
// none was sent.
func resolveTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return defaultTimeout
	}
	return min(d, maxTimeout)
}

// frontEnd is the request path state: the backend, the vertex-ID space
// requests are checked against, the registry the request families and spans
// land on, the slow-query log, the drain flag, and — graphd's only — the
// profiler with the in-flight traces it stamps captures with.
type frontEnd struct {
	back     backend
	vertices int32
	reg      *telemetry.Registry
	slow     *slowLog
	prof     *prof.Profiler // nil unless Config.ProfileTriggers

	// draining is set by BeginDrain and fails the /readyz draining check.
	draining atomic.Bool

	// activeTraces refcounts the trace IDs of in-flight traced requests so a
	// profile capture can be stamped with the requests it overlapped.
	// Maintained only when the profiler is enabled.
	activeMu     sync.Mutex
	activeTraces map[telemetry.TraceID]int
}

// BeginDrain marks the front end not-ready without stopping anything:
// /readyz answers 503 naming the draining check from now on, while queries
// still complete (graphd also refuses new ingest). Call it on SIGTERM, then
// hold the listener open for the drain-grace period so load balancers
// observe the flip before it closes.
func (fe *frontEnd) BeginDrain() { fe.draining.Store(true) }

// drainCheck is the /readyz draining check both binaries lead with.
func (fe *frontEnd) drainCheck() (name string, ok bool, detail string) {
	if fe.draining.Load() {
		return "draining", false, "server is draining"
	}
	return "draining", true, "accepting work"
}

// ClusterAPI is graphctl's HTTP API: graphd's front end over a coordinator.
type ClusterAPI struct {
	http.Handler
	*frontEnd
}

// ClusterHandler returns graphctl's HTTP API over the coordinator c, with
// the request families and spans on reg, c's registry, so /metrics carries
// them beside the cluster_* families. graphctl has no slow-query threshold:
// its /debug/slowqueries serves an empty ring.
func ClusterHandler(c *cluster.Coordinator, reg *telemetry.Registry) *ClusterAPI {
	fe := &frontEnd{vertices: c.Vertices(), reg: reg, slow: newSlowLog(0, nil, reg)}
	fe.back = clusterBackend{c, fe}
	return &ClusterAPI{fe.handler(nil), fe}
}

// clusterBackend answers the front end from a coordinator over shards.
type clusterBackend struct {
	c  *cluster.Coordinator
	fe *frontEnd
}

func (clusterBackend) enter(context.Context, *reqTrace) error { return nil }
func (clusterBackend) leave()                                 {}
func (b clusterBackend) stats() any                           { return b.c.Stats() }

// readiness leads the coordinator's per-shard checks with the drain check.
func (b clusterBackend) readiness() wire.Readiness {
	name, ok, detail := b.fe.drainCheck()
	r := b.c.Readiness()
	r.Checks = append([]wire.ReadyCheck{{Name: name, OK: ok, Detail: detail}}, r.Checks...)
	r.Ready = r.Ready && ok
	return r
}

// whole, khop and jaccard each read from the shards in one "cluster"
// stage: the exchanges and the coordinator's merge.
func (b clusterBackend) whole(ctx context.Context, rt *reqTrace, op byte) (whole, error) {
	st := rt.stage("cluster")
	s, err := b.c.Read(ctx, op)
	st.end()
	if err != nil {
		return whole{}, err
	}
	return whole{version: s.Version(), labels: s.Labels, sizes: s.Sizes, components: s.Components, scores: s.Scores, iters: s.Iterations}, nil
}

func (b clusterBackend) khop(ctx context.Context, rt *reqTrace, seeds []int32, k int32) ([]int32, error) {
	st := rt.stage("cluster")
	defer st.end()
	return b.c.KHop(ctx, &rt.scr, seeds, k)
}

func (b clusterBackend) jaccard(ctx context.Context, rt *reqTrace, u int32, threshold float64) ([]kernels.JaccardPairScore, error) {
	st := rt.stage("cluster")
	defer st.end()
	return b.c.Jaccard(ctx, &rt.scr, u, threshold)
}

func (clusterBackend) exchange(_ context.Context, _ *reqTrace, req *wire.Request) (any, error) {
	return nil, badRequest("op %s is not a cluster query", wire.OpName(req.Op))
}

// ingest routes the edits to their shards in the "cluster" stage.
func (b clusterBackend) ingest(rt *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error) {
	st := rt.stage("cluster")
	defer st.end()
	return b.c.Ingest(edits, defaultTimeout)
}

// handler returns the front end's mux with the backend's extra endpoints,
// and the telemetry registry's own (/metrics, /metrics.json, /debug/spans,
// /debug/trace/{id}, /debug/pprof/...) mounted on it — one listener serves
// traffic and observability. Queries and ingest are traced; every other
// endpoint still echoes the caller's trace identity.
func (fe *frontEnd) handler(extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", fe.handleIngest)
	for _, op := range []byte{wire.OpJaccard, wire.OpKHop, wire.OpTopDegree, wire.OpComponent, wire.OpPageRank, wire.OpBatch} {
		mux.HandleFunc("/query/"+wire.OpName(op), fe.query(op))
	}
	tel := fe.reg.Handler()
	for path, h := range map[string]http.Handler{
		"/stats": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, fe.back.stats())
		}),
		"/healthz":           http.HandlerFunc(handleHealthz),
		"/readyz":            http.HandlerFunc(fe.handleReadyz),
		"/debug/slowqueries": http.HandlerFunc(fe.handleSlowQueries),
		"/metrics":           tel,
		"/metrics.json":      tel,
		"/debug/":            tel,
	} {
		mux.Handle(path, untraced(h))
	}
	for path, h := range extra {
		mux.Handle(path, untraced(h))
	}
	return mux
}

// query serves /query/<op> under the full serving discipline: deadline
// resolution, the request trace (root span, lifecycle stages, slow-query
// capture), parsing into a wire.Request, dispatch, encoding and metrics.
func (fe *frontEnd) query(op byte) http.HandlerFunc {
	name := wire.OpName(op)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, rt := fe.startTrace(r.Context(), inboundTrace(r), name, start)
		echoTrace(w, rt.tc, rt.root.ID())
		if fe.prof.Enabled() {
			// Track the trace so a breach-triggered profile bundle can be
			// stamped with the requests it overlapped. Gated on the profiler
			// so the default path stays allocation-free.
			fe.trackTrace(rt.tc.TraceID)
			defer fe.untrackTrace(rt.tc.TraceID)
		}

		var out any
		var code int
		q := queryString(r.URL.RawQuery)
		d, err := queryTimeout(q)
		var subs []batchSub
		if err == nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
			if op == wire.OpBatch {
				rt.req = wire.Request{Op: op}
				subs, err = decodeBatch(r, rt)
			} else {
				err = parseQuery(op, q, &rt.req)
			}
		}
		if err == nil {
			out, code, err = fe.dispatch(ctx, rt, &rt.req, subs)
		} else {
			code = wire.StatusOf(err)
			rt.root.SetAttr("status", httpCodeLabel(code))
		}
		if err != nil {
			http.Error(w, err.Error(), code)
		} else {
			if items, ok := out.([]batchItem); ok {
				out = batchEnvelope{Count: len(items), Results: items}
			}
			st := rt.stage("encode")
			writeJSON(w, code, out)
			st.end()
		}
		wall := time.Since(start)
		rt.finish(code, wall)
		fe.countQuery(name, code, wall.Seconds())
	}
}

// batchEnvelope is the JSON answer to POST /query/batch.
type batchEnvelope struct {
	Count   int         `json:"count"`
	Results []batchItem `json:"results"`
}

// queryTimeout resolves the query deadline from ?timeout= (Go duration) by
// resolveTimeout's rule.
func queryTimeout(q queryString) (time.Duration, error) {
	raw := q.get("timeout")
	if raw == "" {
		return defaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, badRequest("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, badRequest("timeout must be positive, got %q", raw)
	}
	return resolveTimeout(d), nil
}

// maxIngestBody bounds one ingest or batch request body (16 MiB ≈ 300k
// updates) so a runaway client cannot balloon the decoder.
const maxIngestBody = 16 << 20

// handleIngest admits a JSON array of edits through the backend. The body
// is read ("read" stage) and decoded by wire.AppendEditsJSON ("decode"
// stage) into the request's scratch, which dies with the request. Responses:
// 202 all accepted; 429 with Retry-After when the backend took a prefix (the
// accepted count tells the client which suffix to retry); 503 with
// Retry-After when it cannot take them — graphd draining, or a shard
// unreachable, when the body still carries the accepted prefix; 400 for a
// malformed or out-of-range body; 405 for anything but POST.
func (fe *frontEnd) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, rt := fe.startTrace(r.Context(), inboundTrace(r), "ingest", start)
	echoTrace(w, rt.tc, rt.root.ID())

	var res *wire.IngestResult
	var err error
	code := http.StatusMethodNotAllowed
	if r.Method != http.MethodPost {
		err = wire.Errorf(code, "POST only")
	} else {
		scr := &rt.scr
		st := rt.stage("read")
		scr.Body, err = readBody(scr.Body, http.MaxBytesReader(w, r.Body, maxIngestBody), r.ContentLength)
		st.end()
		if err == nil {
			st = rt.stage("decode")
			scr.Edits, err = wire.AppendEditsJSON(scr.Edits, scr.Body)
			st.end()
		}
		if err != nil {
			code, err = http.StatusBadRequest, badRequest("bad ingest body: %v", err)
		} else {
			res, code, err = fe.submit(rt, scr.Edits)
		}
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	if res == nil {
		http.Error(w, err.Error(), code)
	} else {
		st := rt.stage("encode")
		writeJSON(w, code, res)
		st.end()
	}
	wall := time.Since(start)
	rt.finish(code, wall)
	fe.countQuery("ingest", code, wall.Seconds())
}

// readBody appends everything r holds to dst, first growing dst to the
// size the client declared (up to the ingest bound) so that a body is
// read without re-allocation.
func readBody(dst []byte, r io.Reader, size int64) ([]byte, error) {
	if size > 0 && size < maxIngestBody {
		dst = slices.Grow(dst, int(size)+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// handleHealthz is pure liveness: 200 whenever the process serves HTTP,
// draining included (restart-worthy failures are the probe's only signal).
func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves the backend's readiness model: 200 with the check
// detail when every component is healthy, 503 with the same payload when any
// is not.
func (fe *frontEnd) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	r := fe.back.readiness()
	code := http.StatusOK
	if !r.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, r)
}

// maxBatchSubs bounds one batch request's sub-query count.
const maxBatchSubs = 1024

// batchSub is one decoded sub-query of a batch: its request, or the error it
// answers with instead of running (a bad spec or sub-frame).
type batchSub struct {
	req wire.Request
	err error
}

// batchItem is one sub-query outcome in a batch response. Status is the
// HTTP-equivalent code; exactly one of Result / Err is set.
type batchItem struct {
	// Status is the sub-query's HTTP-equivalent status code.
	Status int `json:"status"`
	// Result is the sub-query's answer (Status 200 only).
	Result any `json:"result,omitempty"`
	// Err is the sub-query's error message (non-200 only).
	Err string `json:"error,omitempty"`
}

// dispatch runs one query — or, for a batch, its sub-queries in order — for
// either transport: under the backend's admission (a batch holds one slot),
// with pprof op labels when the profiler is on, the root span tagged with
// the outcome. It returns the answer and its HTTP status; the caller
// encodes, then finishes the trace.
func (fe *frontEnd) dispatch(ctx context.Context, rt *reqTrace, req *wire.Request, subs []batchSub) (any, int, error) {
	if err := fe.back.enter(ctx, rt); err != nil {
		rt.root.SetAttr("status", "admission-timeout")
		return nil, http.StatusGatewayTimeout, err
	}
	defer fe.back.leave()
	var out any
	var err error
	if !fe.prof.Enabled() {
		out, err = fe.answer(ctx, rt, req, subs)
	} else {
		// Labels are inherited by the par worker goroutines the kernels
		// spawn, so CPU samples in trigger-captured profiles attribute by
		// endpoint. pprof.Do costs an allocation, so it is gated.
		pprof.Do(ctx, pprof.Labels("op", rt.op), func(ctx context.Context) {
			out, err = fe.answer(ctx, rt, req, subs)
		})
	}
	code := http.StatusOK
	if err != nil {
		code = wire.StatusOf(err)
	}
	rt.root.SetAttr("status", httpCodeLabel(code))
	return out, code, err
}

// answer answers req, unrolling a batch: its sub-queries run in order under
// the batch's context, and each failure — including per-sub deadline
// expiry once ctx ends — lands in its item, never failing the envelope.
func (fe *frontEnd) answer(ctx context.Context, rt *reqTrace, req *wire.Request, subs []batchSub) (any, error) {
	if req.Op != wire.OpBatch {
		return fe.run(ctx, rt, req)
	}
	items := make([]batchItem, len(subs))
	for i := range subs {
		var res any
		err := subs[i].err
		if err == nil {
			res, err = fe.run(ctx, rt, &subs[i].req)
		}
		if err != nil {
			items[i] = batchItem{Status: wire.StatusOf(err), Err: err.Error()}
		} else {
			items[i] = batchItem{Status: http.StatusOK, Result: res}
		}
	}
	return items, nil
}

// trackTrace registers an in-flight traced request for profile stamping.
// Only called when the profiler is enabled.
func (fe *frontEnd) trackTrace(id telemetry.TraceID) {
	fe.activeMu.Lock()
	fe.activeTraces[id]++
	fe.activeMu.Unlock()
}

// untrackTrace drops one reference to an in-flight trace.
func (fe *frontEnd) untrackTrace(id telemetry.TraceID) {
	fe.activeMu.Lock()
	if fe.activeTraces[id]--; fe.activeTraces[id] <= 0 {
		delete(fe.activeTraces, id)
	}
	fe.activeMu.Unlock()
}

// activeTraceIDs snapshots the trace IDs of requests in flight right now.
func (fe *frontEnd) activeTraceIDs() []telemetry.TraceID {
	fe.activeMu.Lock()
	defer fe.activeMu.Unlock()
	out := make([]telemetry.TraceID, 0, len(fe.activeTraces))
	for id := range fe.activeTraces {
		out = append(out, id)
	}
	return out
}
