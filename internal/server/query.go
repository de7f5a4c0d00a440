package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/wire"
)

// Handler returns the daemon's HTTP API, with the telemetry registry's own
// endpoints (/metrics, /metrics.json, /debug/spans, /debug/trace/{id},
// /debug/pprof/...) mounted on the same mux — one listener serves traffic
// and observability. /healthz is pure liveness and /readyz the aggregated
// readiness model (see health.go); /debug/slo serves the SLO engine's
// self-evaluation and /debug/profiles the trigger-captured profile
// bundles. The whole mux is wrapped in the traceparent middleware, so
// every endpoint accepts and echoes a W3C trace identity.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/debug/slowqueries", s.handleSlowQueries)
	mux.HandleFunc("/query/jaccard", s.query("jaccard", s.handleQuery(wire.OpJaccard)))
	mux.HandleFunc("/query/khop", s.query("khop", s.handleQuery(wire.OpKHop)))
	mux.HandleFunc("/query/topdegree", s.query("topdegree", s.handleQuery(wire.OpTopDegree)))
	mux.HandleFunc("/query/component", s.query("component", s.handleQuery(wire.OpComponent)))
	mux.HandleFunc("/query/pagerank", s.query("pagerank", s.handleQuery(wire.OpPageRank)))
	mux.HandleFunc("/query/batch", s.query("batch", s.handleBatch))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsNow())
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.Handle("/debug/profiles", s.prof)
	mux.Handle("/debug/profiles/", s.prof)
	tel := s.reg.Handler()
	mux.Handle("/metrics", tel)
	mux.Handle("/metrics.json", tel)
	mux.Handle("/debug/", tel)
	return s.traceHeaders(mux)
}

// httpError is a handler-returned error carrying its status code.
type httpError struct {
	code int
	msg  string
}

// Error implements the error interface.
func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// query wraps one query endpoint with the full serving discipline:
// deadline resolution, the request trace (root span + lifecycle stages +
// slow-query capture), metrics, and the shared dispatch core (admission,
// error-to-status mapping; see dispatch.go) that the wire protocol also
// runs through. The handler h is only the HTTP codec: it parses request
// parameters from q, the query string parsed once per request, and
// delegates to a run* query body.
func (s *Server) query(op string, h func(ctx context.Context, r *http.Request, q url.Values) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()

		q := r.URL.Query()
		d, err := s.requestTimeout(q)
		if err != nil {
			code := http.StatusBadRequest
			http.Error(w, err.Error(), code)
			s.countQuery(op, code, time.Since(start).Seconds())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()

		ctx, rt := s.startRequestTrace(ctx, w, op, start)
		if s.prof.Enabled() {
			// Track the trace so a breach-triggered profile bundle can be
			// stamped with the requests it overlapped. Gated on the profiler
			// so the default path stays allocation-free.
			s.trackTrace(rt.tc.TraceID)
			defer s.untrackTrace(rt.tc.TraceID)
		}

		out, code, err := s.dispatch(ctx, rt, op, start, func(ctx context.Context) (any, error) {
			return h(ctx, r, q)
		})
		if err != nil {
			http.Error(w, err.Error(), code)
		} else {
			endEncode := rt.stage("encode")
			writeJSON(w, code, out)
			endEncode()
		}
		wall := time.Since(start)
		rt.finish(code, wall)
		s.countQuery(op, code, wall.Seconds())
	}
}

// requestTimeout resolves the query deadline: ?timeout= (Go duration),
// clamped to Config.MaxTimeout, defaulting to Config.DefaultTimeout.
func (s *Server) requestTimeout(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, badRequest("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, badRequest("timeout must be positive, got %q", raw)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// IngestUpdate is the wire form of one streaming update.
type IngestUpdate struct {
	Src    int32   `json:"src"`
	Dst    int32   `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
	Time   int64   `json:"time,omitempty"`
	Delete bool    `json:"delete,omitempty"`
}

// maxIngestBody bounds one ingest request (16 MiB ≈ 300k updates) so a
// runaway client cannot balloon the decoder.
const maxIngestBody = 16 << 20

// handleIngest admits a JSON array of updates into the ingest queue.
// Responses: 202 all accepted, 429 queue full (with Retry-After; the
// accepted count tells the client which suffix to retry), 503 draining,
// 400 malformed or out-of-range updates.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	op := "ingest"
	if r.Method != http.MethodPost {
		code := http.StatusMethodNotAllowed
		http.Error(w, "POST only", code)
		s.countQuery(op, code, time.Since(start).Seconds())
		return
	}
	if s.draining.Load() {
		code := http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server is draining", code)
		s.countQuery(op, code, time.Since(start).Seconds())
		return
	}
	_, rt := s.startRequestTrace(r.Context(), w, op, start)
	finish := func(code int) {
		wall := time.Since(start)
		rt.finish(code, wall)
		s.countQuery(op, code, wall.Seconds())
	}

	endDecode := rt.stage("decode")
	var updates []IngestUpdate
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&updates)
	edits := make([]dyngraph.Edit, len(updates))
	for i, u := range updates {
		edits[i] = dyngraph.Edit{Src: u.Src, Dst: u.Dst, Weight: u.Weight, Time: u.Time, Delete: u.Delete}
	}
	endDecode()
	res, code := EnqueueResult{}, http.StatusBadRequest
	if err != nil {
		err = badRequest("bad ingest body: %v", err)
	} else {
		res, code, err = s.admitEdits(rt, edits)
	}
	if err != nil {
		http.Error(w, err.Error(), code)
		finish(code)
		return
	}
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	endEncode := rt.stage("encode")
	writeJSON(w, code, res)
	endEncode()
	finish(code)
}

// handleQuery answers GET /query/<op>: the URL's parameters become the
// wire.Request a wire session would decode, with HTTP's defaults (khop k=1,
// top-k 10), run through the same wireRun.
func (s *Server) handleQuery(op byte) func(context.Context, *http.Request, url.Values) (any, error) {
	return func(ctx context.Context, _ *http.Request, q url.Values) (any, error) {
		req := wire.Request{Op: op}
		var err error
		switch op {
		case wire.OpJaccard:
			req.U, err = s.vertexParam(q, "u")
			if raw := q.Get("threshold"); err == nil && raw != "" {
				if req.Threshold, err = strconv.ParseFloat(raw, 64); err != nil {
					err = badRequest("bad threshold %q", raw)
				}
			}
		case wire.OpKHop:
			if req.Seeds, err = s.seedsParam(q); err == nil {
				req.K, err = kParam(q, 1, 0)
			}
		case wire.OpComponent:
			req.V, err = s.vertexParam(q, "v")
		case wire.OpPageRank:
			if req.HasV = q.Get("v") != ""; req.HasV {
				req.V, err = s.vertexParam(q, "v")
				break
			}
			fallthrough
		case wire.OpTopDegree:
			req.K, err = kParam(q, 10, 1)
		}
		if err != nil {
			return nil, err
		}
		return s.wireRun(&req)(ctx)
	}
}

// batchQuerySpec is one sub-query of a POST /query/batch request. Pointer
// fields distinguish "absent" from zero so required parameters can be
// enforced per op.
type batchQuerySpec struct {
	// Op names the sub-query: jaccard, khop, topdegree, component, pagerank.
	Op string `json:"op"`
	// U is jaccard's source vertex.
	U *int32 `json:"u,omitempty"`
	// V is the vertex parameter (component, single-vertex pagerank, khop seed).
	V *int32 `json:"v,omitempty"`
	// K is the op's count/depth parameter.
	K *int32 `json:"k,omitempty"`
	// Threshold is jaccard's minimum score filter.
	Threshold float64 `json:"threshold,omitempty"`
	// Seeds is khop's seed list (overrides V).
	Seeds []int32 `json:"seeds,omitempty"`
}

// batchSubFor compiles one HTTP batch sub-query spec into a runnable
// batchSub by way of the wire request, with HTTP's defaults (khop k=1,
// top-k 10). Unknown ops and missing or bad parameters surface as per-item
// 400s at run time, never as envelope failures.
func (s *Server) batchSubFor(q batchQuerySpec) batchSub {
	req := wire.Request{Seeds: q.Seeds, Threshold: q.Threshold, K: 10}
	if q.K != nil {
		req.K = *q.K
	}
	var err error
	switch q.Op {
	case "jaccard":
		req.Op = wire.OpJaccard
		if q.U == nil {
			err = badRequest("jaccard: missing u")
		} else {
			req.U = *q.U
		}
	case "khop":
		req.Op = wire.OpKHop
		if len(req.Seeds) == 0 && q.V != nil {
			req.Seeds = []int32{*q.V}
		}
		if q.K == nil {
			req.K = 1
		}
	case "component":
		req.Op = wire.OpComponent
		if q.V == nil {
			err = badRequest("component: missing v")
		} else {
			req.V = *q.V
		}
	case "topdegree", "pagerank":
		req.Op = wire.OpTopDegree
		if q.Op == "pagerank" {
			req.Op, req.HasV = wire.OpPageRank, q.V != nil
		}
		switch {
		case req.HasV:
			req.V = *q.V
		case req.K <= 0: // only an explicit k gets here; wire reads 0 as "default"
			err = badRequest("bad k %d", req.K)
		}
	default:
		err = badRequest("batch: unsupported op %q", q.Op)
	}
	if err != nil {
		return func(context.Context) (any, error) { return nil, err }
	}
	return batchSub(s.wireRun(&req))
}

// handleBatch answers POST /query/batch: a JSON body
// {"queries":[{"op":...,...},...]} executed sequentially under one
// admission slot, one deadline, and one trace. The envelope is 200 as long
// as it parses; each item carries its own HTTP-equivalent status. Ingest is
// not batchable — it has its own queue-backed endpoint.
func (s *Server) handleBatch(ctx context.Context, r *http.Request, _ url.Values) (any, error) {
	if r.Method != http.MethodPost {
		return nil, &httpError{code: http.StatusMethodNotAllowed, msg: "POST only"}
	}
	endDecode := traceFrom(ctx).stage("decode")
	var body struct {
		Queries []batchQuerySpec `json:"queries"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxIngestBody))
	err := dec.Decode(&body)
	endDecode()
	if err != nil {
		return nil, badRequest("bad batch body: %v", err)
	}
	if len(body.Queries) == 0 {
		return nil, badRequest("batch: no queries")
	}
	if len(body.Queries) > maxBatchSubs {
		return nil, badRequest("batch: %d queries exceeds limit %d", len(body.Queries), maxBatchSubs)
	}
	subs := make([]batchSub, len(body.Queries))
	for i, q := range body.Queries {
		subs[i] = s.batchSubFor(q)
	}
	items := s.runBatch(ctx, subs)
	return map[string]any{"count": len(items), "results": items}, nil
}

// vertexParam parses a required in-range vertex id query parameter.
func (s *Server) vertexParam(q url.Values, name string) (int32, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, badRequest("missing required parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, badRequest("bad vertex %q", raw)
	}
	if v < 0 || int32(v) >= s.cfg.Vertices {
		return 0, badRequest("vertex %d out of range [0,%d)", v, s.cfg.Vertices)
	}
	return int32(v), nil
}

// seedsParam parses ?v= (single) or ?seeds=a,b,c (list) for k-hop queries.
func (s *Server) seedsParam(q url.Values) ([]int32, error) {
	if raw := q.Get("seeds"); raw != "" {
		parts := strings.Split(raw, ",")
		seeds := make([]int32, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil || v < 0 || int32(v) >= s.cfg.Vertices {
				return nil, badRequest("bad seed %q", p)
			}
			seeds = append(seeds, int32(v))
		}
		return seeds, nil
	}
	v, err := s.vertexParam(q, "v")
	if err != nil {
		return nil, err
	}
	return []int32{v}, nil
}

// kParam parses the optional ?k= parameter, a result count or khop's depth:
// def when absent, an error below lo.
func kParam(q url.Values, def, lo int32) (int32, error) {
	raw := q.Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || k < int64(lo) {
		return 0, badRequest("bad k %q", raw)
	}
	return int32(k), nil
}

// writeJSON writes v with the given status; an encode failure after the
// header is logged into the payload stream (too late for a status change).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// codeLabels are the metric label values of the HTTP status codes, made
// once so counting a request allocates nothing.
var codeLabels = func() (l [600]string) {
	for c := range l {
		l[c] = strconv.Itoa(c)
	}
	return l
}()

// httpCodeLabel renders a status code as a metric label value.
func httpCodeLabel(code int) string {
	if code >= 0 && code < len(codeLabels) {
		return codeLabels[code]
	}
	return strconv.Itoa(code)
}
