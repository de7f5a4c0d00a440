package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/reqscratch"
	"repro/internal/wire"
)

// The coordinator's HTTP API mirrors a single graphd's: the same endpoint
// paths, the same query parameters, the same JSON payloads, the same
// ingest status contract (202 / 429+Retry-After / 503). A client written
// against one graphd points at graphctl and sees a bigger graph. The
// surface is the query/ingest/health subset — per-process debug endpoints
// (/debug/slo, /debug/profiles, ...) stay on the shards they describe.

// maxIngestBody mirrors the shard server's ingest body cap (16 MiB).
const maxIngestBody = 16 << 20

// ingestUpdate is the JSON shape of one ingest edit — identical keys to
// the shard server's IngestUpdate.
type ingestUpdate struct {
	Src    int32   `json:"src"`
	Dst    int32   `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
	Time   int64   `json:"time,omitempty"`
	Delete bool    `json:"delete,omitempty"`
}

// Handler returns the coordinator's HTTP API. When the coordinator was
// built with a telemetry registry, its /metrics, /metrics.json, and
// /debug/ endpoints are mounted on the same mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", c.handleIngest)
	mux.HandleFunc("/query/jaccard", c.query("jaccard", c.handleJaccard))
	mux.HandleFunc("/query/khop", c.query("khop", c.handleKHop))
	mux.HandleFunc("/query/topdegree", c.query("topdegree", c.handleTopDegree))
	mux.HandleFunc("/query/component", c.query("component", c.handleComponent))
	mux.HandleFunc("/query/pagerank", c.query("pagerank", c.handlePageRank))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", c.handleReadyz)
	if c.cfg.Registry != nil {
		tel := c.cfg.Registry.Handler()
		mux.Handle("/metrics", tel)
		mux.Handle("/metrics.json", tel)
		mux.Handle("/debug/", tel)
	}
	return mux
}

// query wraps one coordinator query endpoint: deadline resolution, the
// handler codec, error-to-status mapping, and cluster_* metrics. h parses
// its parameters from q, the query string parsed once per request, and
// builds its answer in scr, the request's result scratch, which goes back
// to the pool only once the answer is written.
func (c *Coordinator) query(op string, h func(ctx context.Context, scr *reqscratch.Scratch, q url.Values) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := r.URL.Query()
		d, err := c.httpTimeout(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			c.m.query(op, http.StatusBadRequest, start)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		scr := reqscratch.Get()
		defer reqscratch.Put(scr)
		out, err := h(ctx, scr, q)
		if err != nil {
			code := errToCode(err)
			http.Error(w, err.Error(), code)
			c.m.query(op, code, start)
			return
		}
		writeJSON(w, http.StatusOK, out)
		c.m.query(op, http.StatusOK, start)
	}
}

// httpTimeout resolves ?timeout= exactly like a shard server: Go duration,
// positive, clamped to MaxTimeout, defaulting to DefaultTimeout.
func (c *Coordinator) httpTimeout(q url.Values) (time.Duration, error) {
	raw := q.Get("timeout")
	if raw == "" {
		return c.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, badRequestf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, badRequestf("timeout must be positive, got %q", raw)
	}
	return c.ResolveTimeout(d), nil
}

// handleIngest admits a JSON array of updates, fans them out along the
// partition, and answers with the global contiguous-accepted-prefix
// result: 202 all accepted, 429+Retry-After on backpressure (retry the
// suffix from the accepted count), 503 when a shard is unreachable or
// draining, 400 malformed.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		c.m.query("ingest", http.StatusMethodNotAllowed, start)
		return
	}
	var updates []ingestUpdate
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err := dec.Decode(&updates); err != nil {
		http.Error(w, fmt.Sprintf("bad ingest body: %v", err), http.StatusBadRequest)
		c.m.query("ingest", http.StatusBadRequest, start)
		return
	}
	edits := make([]wire.IngestEdit, len(updates))
	for i, u := range updates {
		edits[i] = wire.IngestEdit{Src: u.Src, Dst: u.Dst, Weight: u.Weight, Time: u.Time, Delete: u.Delete}
	}
	res, code, err := c.Ingest(edits, c.cfg.DefaultTimeout)
	if err != nil && code == http.StatusBadRequest {
		http.Error(w, err.Error(), code)
		c.m.query("ingest", code, start)
		return
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, res)
	c.m.query("ingest", code, start)
}

// handleReadyz serves the aggregated cluster readiness: 200 when every
// shard passes, 503 with the failing checks otherwise — the same contract
// a single graphd's /readyz follows.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	rd := c.Readiness()
	code := http.StatusOK
	if !rd.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, rd)
}

func (c *Coordinator) handleJaccard(ctx context.Context, scr *reqscratch.Scratch, q url.Values) (any, error) {
	u, err := c.vertexParam(q, "u")
	if err != nil {
		return nil, err
	}
	threshold := 0.0
	if raw := q.Get("threshold"); raw != "" {
		threshold, err = strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, badRequestf("bad threshold %q", raw)
		}
	}
	return c.jaccardIn(ctx, scr, u, threshold)
}

func (c *Coordinator) handleKHop(ctx context.Context, scr *reqscratch.Scratch, q url.Values) (any, error) {
	seeds, err := c.seedsParam(q)
	if err != nil {
		return nil, err
	}
	k := int64(1)
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.ParseInt(raw, 10, 32)
		if err != nil || k < 0 {
			return nil, badRequestf("bad k %q", raw)
		}
	}
	return c.khopIn(ctx, scr, seeds, int32(k))
}

func (c *Coordinator) handleTopDegree(ctx context.Context, _ *reqscratch.Scratch, q url.Values) (any, error) {
	k, err := c.kParam(q, 10)
	if err != nil {
		return nil, err
	}
	return c.TopDegree(ctx, int32(k))
}

func (c *Coordinator) handleComponent(ctx context.Context, _ *reqscratch.Scratch, q url.Values) (any, error) {
	v, err := c.vertexParam(q, "v")
	if err != nil {
		return nil, err
	}
	return c.Component(ctx, v)
}

func (c *Coordinator) handlePageRank(ctx context.Context, _ *reqscratch.Scratch, q url.Values) (any, error) {
	if raw := q.Get("v"); raw != "" {
		v, err := c.vertexParam(q, "v")
		if err != nil {
			return nil, err
		}
		return c.PageRankVertex(ctx, v)
	}
	k, err := c.kParam(q, 10)
	if err != nil {
		return nil, err
	}
	return c.PageRankTop(ctx, int32(k))
}

// vertexParam parses a required in-range vertex id query parameter.
func (c *Coordinator) vertexParam(q url.Values, name string) (int32, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, badRequestf("missing required parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, badRequestf("bad vertex %q", raw)
	}
	if v < 0 || int32(v) >= c.cfg.Vertices {
		return 0, badRequestf("vertex %d out of range [0,%d)", v, c.cfg.Vertices)
	}
	return int32(v), nil
}

// seedsParam parses ?v= (single) or ?seeds=a,b,c (list) for k-hop queries.
func (c *Coordinator) seedsParam(q url.Values) ([]int32, error) {
	if raw := q.Get("seeds"); raw != "" {
		parts := strings.Split(raw, ",")
		seeds := make([]int32, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil || v < 0 || int32(v) >= c.cfg.Vertices {
				return nil, badRequestf("bad seed %q", p)
			}
			seeds = append(seeds, int32(v))
		}
		return seeds, nil
	}
	v, err := c.vertexParam(q, "v")
	if err != nil {
		return nil, err
	}
	return []int32{v}, nil
}

// kParam parses the optional ?k= result-count parameter.
func (c *Coordinator) kParam(q url.Values, def int) (int, error) {
	raw := q.Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, badRequestf("bad k %q", raw)
	}
	return k, nil
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
