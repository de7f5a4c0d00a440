package server

import (
	"context"
	"net/http"
	"slices"
	"strconv"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/kernels"
	"repro/internal/reqscratch"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// graphd as the front end's backend (frontend.go): admission against the
// worker budget, the query bodies (run*) over the published bundles, and
// the ingest core. Both transports reach them through the same dispatch, so
// a query is answered identically — same snapshot discipline, same caches,
// same SLO accounting — whichever it arrived on. The run* methods return
// the shared value types in internal/wire, which carry the HTTP API's exact
// JSON tags and a binary encoding, making the twin-request equivalence
// property (decode(JSON answer) == decode(wire answer)) structural.

// enter admits one query (or batch) against the worker-budget semaphore,
// bounded by ctx's deadline, in rt's "admission" stage, then applies the
// test-only query delay. A free slot is taken without waiting on ctx.
func (s *Server) enter(ctx context.Context, rt *reqTrace) error {
	st := rt.stage("admission")
	select {
	case s.admit <- struct{}{}:
	default:
		select {
		case s.admit <- struct{}{}:
		case <-ctx.Done():
			st.end()
			return wire.Errorf(http.StatusGatewayTimeout, "deadline exceeded while waiting for admission")
		}
	}
	st.end()
	s.m.admitWait.ObserveDuration(time.Since(rt.start))
	s.m.inflightHWM.observe(int64(len(s.admit)))
	if d := s.cfg.queryDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	return nil
}

// leave returns the slot enter took.
func (s *Server) leave() { <-s.admit }

// stats is the /stats payload.
func (s *Server) stats() any { return s.StatsNow() }

// readiness evaluates /readyz and mirrors the verdict in server_ready.
func (s *Server) readiness() (any, bool) {
	r := s.Readiness()
	ready := 0.0
	if r.Ready {
		ready = 1
	}
	s.m.ready.Set(ready)
	return r, r.Ready
}

// run answers one query op: the client queries and the shard-exchange ops.
func (s *Server) run(ctx context.Context, _ *reqTrace, req *wire.Request) (any, error) {
	switch req.Op {
	case wire.OpJaccard:
		return s.runJaccard(ctx, req.U, req.Threshold)
	case wire.OpKHop:
		return s.runKHop(ctx, req.Seeds, req.K)
	case wire.OpTopDegree:
		return s.runTopDegree(ctx, int(req.TopK()))
	case wire.OpComponent:
		return s.runComponent(ctx, req.V)
	case wire.OpPageRank:
		if req.HasV {
			return s.runPageRankVertex(ctx, req.V)
		}
		return s.runPageRankTop(ctx, int(req.TopK()))
	case wire.OpShardDegrees:
		return s.runShardDegrees(ctx)
	case wire.OpShardWCC:
		return s.runShardWCC(ctx)
	case wire.OpShardPRStep:
		return s.runShardPRStep(ctx, req.Rank)
	case wire.OpShardAdj:
		return s.runShardAdj(ctx, req.Seeds)
	default:
		return nil, badRequest("unknown op %d", req.Op)
	}
}

// ingest is the ingest core both transports share once they have decoded a
// request: refused with 503 while draining, every edit range-checked (a 400
// names the first bad one), then admitted in rt's "enqueue" stage — 202, or
// 429 with the accepted prefix.
func (s *Server) ingest(rt *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, wire.Errorf(http.StatusServiceUnavailable, "server is draining")
	}
	batch := make([]dyngraph.Edit, len(edits))
	for i, e := range edits {
		if e.Src < 0 || e.Src >= s.cfg.Vertices || e.Dst < 0 || e.Dst >= s.cfg.Vertices {
			return nil, http.StatusBadRequest, badRequest("update %d: vertex out of range [0,%d)", i, s.cfg.Vertices)
		}
		batch[i] = dyngraph.Edit{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Time: e.Time, Delete: e.Delete}
	}
	st := rt.stage("enqueue")
	res := s.enqueue(batch)
	st.end()
	rt.root.SetAttr("accepted", strconv.Itoa(res.Accepted))
	if res.Rejected > 0 {
		rt.root.SetAttr("status", "backpressure")
		return &res, http.StatusTooManyRequests, nil
	}
	return &res, http.StatusAccepted, nil
}

// checkVertex validates a vertex ID against the configured ID space.
func (s *Server) checkVertex(v int32) error {
	if v < 0 || v >= s.cfg.Vertices {
		return badRequest("vertex %d out of range [0,%d)", v, s.cfg.Vertices)
	}
	return nil
}

// scratch returns the request's result storage, borrowing it on first use.
// Results built in it alias it until reqTrace.finish puts it back, which
// both transports call after encoding (see internal/reqscratch).
func (rt *reqTrace) scratch() *reqscratch.Scratch {
	if rt.scr == nil {
		rt.scr = reqscratch.Get()
	}
	return rt.scr
}

// runJaccard answers a jaccard query from the published snapshot.
func (s *Server) runJaccard(ctx context.Context, u int32, threshold float64) (*wire.JaccardResult, error) {
	if err := s.checkVertex(u); err != nil {
		return nil, err
	}
	if err := wire.CheckThreshold(threshold); err != nil {
		return nil, err
	}
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	scr := traceFrom(ctx).scratch()
	ctx, st := traceFrom(ctx).stageCtx(ctx, "kernel", telemetry.L("kernel", "jaccard"))
	scores, err := kernels.AppendJaccardFromVertexCtx(ctx, scr.Scores[:0], p.g, u, threshold)
	st.end()
	if err != nil {
		return nil, err
	}
	scr.Scores = scores
	base := len(scr.Pairs)
	scr.Pairs = slices.Grow(scr.Pairs, len(scores))
	for _, sc := range scores {
		scr.Pairs = append(scr.Pairs, wire.JaccardPair{V: sc.V, Score: sc.Score, Inter: sc.Inter})
	}
	return &wire.JaccardResult{U: u, Results: scr.Pairs[base:]}, nil
}

// runKHop answers a khop query from the published snapshot.
func (s *Server) runKHop(ctx context.Context, seeds []int32, k int32) (*wire.KHopResult, error) {
	if len(seeds) == 0 {
		return nil, badRequest("khop: no seed vertices")
	}
	for _, v := range seeds {
		if err := s.checkVertex(v); err != nil {
			return nil, err
		}
	}
	if k < 0 {
		return nil, badRequest("bad k %d", k)
	}
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	scr := traceFrom(ctx).scratch()
	base := len(scr.Verts)
	ctx, st := traceFrom(ctx).stageCtx(ctx, "kernel", telemetry.L("kernel", "khop"))
	verts, err := kernels.AppendKHopNeighborhoodCtx(ctx, scr.Verts, p.g, seeds, k)
	st.end()
	if err != nil {
		return nil, err
	}
	scr.Verts = verts
	return &wire.KHopResult{Seeds: seeds, K: k, Count: len(verts) - base, Vertices: verts[base:]}, nil
}

// runTopDegree answers a topdegree query from the published degree vector
// (advanced over each delta window by the writer); the O(n log k) selection
// itself is too cheap to stage.
func (s *Server) runTopDegree(ctx context.Context, k int) (*wire.TopDegreeResult, error) {
	if k <= 0 {
		return nil, badRequest("bad k %d", k)
	}
	p, err := s.read(ctx, kernDeg)
	if err != nil {
		return nil, err
	}
	return &wire.TopDegreeResult{K: k, Results: scoredToWire(kernels.TopKByScore(p.vec, k))}, nil
}

// scoredToWire converts a kernels score list to the shared wire type (same
// fields; internal/wire imports nothing from the repo, so the k entries are
// copied).
func scoredToWire(in []kernels.ScoredVertex) []wire.ScoredVertex {
	out := make([]wire.ScoredVertex, len(in))
	for i, sv := range in {
		out[i] = wire.ScoredVertex{V: sv.V, Score: sv.Score}
	}
	return out
}

// runComponent answers a component query from the published WCC labels.
func (s *Server) runComponent(ctx context.Context, v int32) (*wire.ComponentResult, error) {
	if err := s.checkVertex(v); err != nil {
		return nil, err
	}
	p, err := s.read(ctx, kernWCC)
	if err != nil {
		return nil, err
	}
	label := p.cc.Label[v]
	return &wire.ComponentResult{
		V:             v,
		Component:     label,
		Size:          p.sizes[label],
		NumComponents: p.cc.NumComponents,
		Version:       p.version,
	}, nil
}

// runPageRankVertex answers a single-vertex pagerank query from the
// published rank vector.
func (s *Server) runPageRankVertex(ctx context.Context, v int32) (*wire.PageRankResult, error) {
	if err := s.checkVertex(v); err != nil {
		return nil, err
	}
	p, err := s.read(ctx, kernPR)
	if err != nil {
		return nil, err
	}
	rank := p.vec[v]
	return &wire.PageRankResult{V: &v, Rank: &rank, Iterations: p.iters, Version: p.version}, nil
}

// runPageRankTop answers a top-k pagerank query from the published rank
// vector.
func (s *Server) runPageRankTop(ctx context.Context, k int) (*wire.PageRankResult, error) {
	if k <= 0 {
		return nil, badRequest("bad k %d", k)
	}
	p, err := s.read(ctx, kernPR)
	if err != nil {
		return nil, err
	}
	top := kernels.TopKByScore(p.vec, k)
	return &wire.PageRankResult{K: k, Results: scoredToWire(top), Iterations: p.iters, Version: p.version}, nil
}
