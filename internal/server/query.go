package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// Handler returns the daemon's HTTP API: the front end (frontend.go) over
// the published bundles, plus graphd's own /debug/slo — the SLO engine's
// self-evaluation — and /debug/profiles, the trigger-captured profile
// bundles. /healthz is pure liveness and /readyz the aggregated readiness
// model (see health.go).
func (s *Server) Handler() http.Handler {
	return s.handler(map[string]http.Handler{
		"/debug/slo":       http.HandlerFunc(s.handleSLO),
		"/debug/profiles":  s.prof,
		"/debug/profiles/": s.prof,
	})
}

// badRequest builds a 400 wire.Error.
func badRequest(format string, args ...any) error {
	return wire.Errorf(http.StatusBadRequest, format, args...)
}

// queryString is a request's raw query string, read in place: unlike
// url.Values it costs nothing to build.
type queryString string

// get returns the first value of key, unescaped, or "" — url.Values.Get's
// answer, pairs that fail to unescape skipped as url.ParseQuery skips them.
func (q queryString) get(key string) string {
	for rest := string(q); rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// parseQuery builds the wire.Request a GET /query/<op> asks for into req,
// reusing its seed storage, with HTTP's defaults (khop k=1, top-k 10). It
// checks syntax only: the backend checks ranges, for every transport alike.
func parseQuery(op byte, q queryString, req *wire.Request) error {
	*req = wire.Request{Op: op, Seeds: req.Seeds[:0]}
	var err error
	switch op {
	case wire.OpJaccard:
		req.U, err = vertexParam(q, "u")
		if raw := q.get("threshold"); err == nil && raw != "" {
			if req.Threshold, err = strconv.ParseFloat(raw, 64); err != nil {
				err = badRequest("bad threshold %q", raw)
			}
		}
	case wire.OpKHop:
		if req.Seeds, err = seedsParam(q, req.Seeds); err == nil {
			req.K, err = kParam(q, 1, 0)
		}
	case wire.OpComponent:
		req.V, err = vertexParam(q, "v")
	case wire.OpPageRank:
		if req.HasV = q.get("v") != ""; req.HasV {
			req.V, err = vertexParam(q, "v")
			break
		}
		fallthrough
	case wire.OpTopDegree:
		req.K, err = kParam(q, wire.DefaultTopK, 1)
	}
	return err
}

// vertexParam parses a required vertex id query parameter.
func vertexParam(q queryString, name string) (int32, error) {
	raw := q.get(name)
	if raw == "" {
		return 0, badRequest("missing required parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, badRequest("bad vertex %q", raw)
	}
	return int32(v), nil
}

// seedsParam appends to seeds the k-hop seeds, ?seeds=a,b,c or a single ?v=.
func seedsParam(q queryString, seeds []int32) ([]int32, error) {
	raw := q.get("seeds")
	if raw == "" {
		v, err := vertexParam(q, "v")
		if err != nil {
			return nil, err
		}
		return append(seeds, v), nil
	}
	for more := true; more; {
		var p string
		p, raw, more = strings.Cut(raw, ",")
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, badRequest("bad seed %q", p)
		}
		seeds = append(seeds, int32(v))
	}
	return seeds, nil
}

// kParam parses the optional ?k= parameter, a result count or khop's depth:
// def when absent, an error below lo.
func kParam(q queryString, def, lo int32) (int32, error) {
	raw := q.get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || k < int64(lo) {
		return 0, badRequest("bad k %q", raw)
	}
	return int32(k), nil
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

// request compiles the spec into the wire.Request it asks for, with HTTP's
// defaults (khop k=1, top-k 10). A bad spec is its item's 400, never the
// envelope's.
func (q batchQuerySpec) request() (wire.Request, error) {
	req := wire.Request{Seeds: q.Seeds, Threshold: q.Threshold, K: wire.DefaultTopK}
	if q.K != nil {
		req.K = *q.K
	}
	switch q.Op {
	case "jaccard":
		req.Op = wire.OpJaccard
		if q.U == nil {
			return req, badRequest("jaccard: missing u")
		}
		req.U = *q.U
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
			return req, badRequest("component: missing v")
		}
		req.V = *q.V
	case "topdegree", "pagerank":
		req.Op = wire.OpTopDegree
		if q.Op == "pagerank" {
			req.Op, req.HasV = wire.OpPageRank, q.V != nil
		}
		switch {
		case req.HasV:
			req.V = *q.V
		case req.K <= 0: // only an explicit k gets here; wire reads 0 as "default"
			return req, badRequest("bad k %d", req.K)
		}
	default:
		return req, badRequest("batch: unsupported op %q", q.Op)
	}
	return req, nil
}

// decodeBatch decodes a POST /query/batch body, {"queries":[{"op":...},...]},
// in rt's "decode" stage. The batch runs sequentially under one admission
// slot, one deadline and one trace; the envelope is 200 as long as it
// parses, each item carrying its own HTTP-equivalent status. Ingest is not
// batchable — it has its own queue-backed endpoint.
func decodeBatch(r *http.Request, rt *reqTrace) ([]batchSub, error) {
	if r.Method != http.MethodPost {
		return nil, wire.Errorf(http.StatusMethodNotAllowed, "POST only")
	}
	st := rt.stage("decode")
	var body struct {
		Queries []batchQuerySpec `json:"queries"`
	}
	err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxIngestBody)).Decode(&body)
	st.end()
	switch {
	case err != nil:
		return nil, badRequest("bad batch body: %v", err)
	case len(body.Queries) == 0:
		return nil, badRequest("batch: no queries")
	case len(body.Queries) > maxBatchSubs:
		return nil, badRequest("batch: %d queries exceeds limit %d", len(body.Queries), maxBatchSubs)
	}
	subs := make([]batchSub, len(body.Queries))
	for i, q := range body.Queries {
		subs[i].req, subs[i].err = q.request()
	}
	return subs, nil
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
