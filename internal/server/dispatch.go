package server

import (
	"context"
	"errors"
	"net/http"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"repro/internal/kernels"
	"repro/internal/scratch"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Protocol-shared request dispatch. The HTTP handlers (query.go) and the
// binary wire sessions (serve_wire.go) are thin codecs around the same core:
// parameter validation, admission, tracing, profiling labels, the query
// bodies (run*), and error→status mapping all live here, so a query is
// answered identically — same snapshot discipline, same caches, same SLO
// accounting — regardless of the transport it arrived on. The run* methods
// return the shared value types in internal/wire, which carry the HTTP API's
// exact JSON tags and a binary encoding, making the twin-request equivalence
// property (decode(JSON answer) == decode(wire answer)) structural.

// statusFor maps a handler error to its HTTP-equivalent status code.
func statusFor(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// dispatch runs one query op under the full serving discipline shared by
// both protocols: admission against the worker-budget semaphore (bounded by
// ctx's deadline), the test-only query delay, pprof op labels, and the
// status root-span attribute. It returns the handler result and the
// HTTP-equivalent status code (the transport maps it to its own status
// space). The caller owns trace creation and the final finish/countQuery.
func (s *Server) dispatch(ctx context.Context, rt *reqTrace, op string, start time.Time, run func(context.Context) (any, error)) (any, int, error) {
	endAdmit := rt.stage("admission")
	select {
	case s.admit <- struct{}{}:
		endAdmit()
		s.m.admitWait.ObserveDuration(time.Since(start))
		s.m.inflight.Add(1)
		s.m.inflightHWM.observe(int64(len(s.admit)))
		defer func() {
			<-s.admit
			s.m.inflight.Add(-1)
		}()
	case <-ctx.Done():
		endAdmit()
		rt.root.SetAttr("status", "admission-timeout")
		return nil, http.StatusGatewayTimeout, errors.New("deadline exceeded while waiting for admission")
	}

	if d := s.cfg.queryDelay; d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}

	out, err := s.runHandler(ctx, op, run)
	if err != nil {
		code := statusFor(err)
		rt.root.SetAttr("status", strconv.Itoa(code))
		return nil, code, err
	}
	rt.root.SetAttr("status", "200")
	return out, http.StatusOK, nil
}

// runHandler invokes the query body. With the profiler enabled, the handler
// runs under a pprof goroutine label (op=<endpoint>) — labels are inherited
// by the par worker goroutines the kernels spawn, so CPU samples in
// trigger-captured profiles attribute by endpoint. Disabled, the call is
// direct (pprof.Do costs an allocation, so it is gated).
func (s *Server) runHandler(ctx context.Context, op string, run func(context.Context) (any, error)) (any, error) {
	if !s.prof.Enabled() {
		return run(ctx)
	}
	var out any
	var err error
	pprof.Do(ctx, pprof.Labels("op", op), func(ctx context.Context) {
		out, err = run(ctx)
	})
	return out, err
}

// checkVertex validates a vertex ID against the configured ID space.
func (s *Server) checkVertex(v int32) error {
	if v < 0 || v >= s.cfg.Vertices {
		return badRequest("vertex %d out of range [0,%d)", v, s.cfg.Vertices)
	}
	return nil
}

// reqScratch is one request's result storage: khop orders and jaccard pairs
// are appended here instead of allocated, so a batch's sub-results sit back
// to back (growth re-allocates; sub-slices handed out earlier keep the old
// array). Ownership rule: a result aliases the scratch until reqTrace.finish
// returns it to the pool, which both transports call after encoding —
// nothing may keep a result past that.
type reqScratch struct {
	verts  []int32
	scores []kernels.JaccardPairScore // kernel output of the jaccard in progress
	pairs  []wire.JaccardPair
}

// The buffers start non-nil so an empty result still encodes as [] in JSON.
var reqScratchPool = scratch.NewPool(func() *reqScratch {
	return &reqScratch{verts: make([]int32, 0, 1024), pairs: make([]wire.JaccardPair, 0, 256)}
})

// scratch returns the request's result storage, borrowing it on first use.
// An untraced call (nil receiver) has no finish to return it in and gets
// ordinary garbage-collected storage.
func (rt *reqTrace) scratch() *reqScratch {
	if rt == nil {
		return reqScratchPool.Get()
	}
	if rt.scr == nil {
		rt.scr = reqScratchPool.Get()
	}
	return rt.scr
}

// runJaccard answers a jaccard query from the current snapshot.
func (s *Server) runJaccard(ctx context.Context, u int32, threshold float64) (*wire.JaccardResult, error) {
	if err := s.checkVertex(u); err != nil {
		return nil, err
	}
	g := s.snapshotFor(ctx)
	scr := traceFrom(ctx).scratch()
	ctx, end := traceFrom(ctx).stageCtx(ctx, "kernel", telemetry.L("kernel", "jaccard"))
	scores, err := kernels.AppendJaccardFromVertexCtx(ctx, scr.scores[:0], g, u, threshold)
	end()
	if err != nil {
		return nil, err
	}
	scr.scores = scores
	base := len(scr.pairs)
	scr.pairs = slices.Grow(scr.pairs, len(scores))
	for _, sc := range scores {
		scr.pairs = append(scr.pairs, wire.JaccardPair{V: sc.V, Score: sc.Score, Inter: sc.Inter})
	}
	return &wire.JaccardResult{U: u, Results: scr.pairs[base:]}, nil
}

// runKHop answers a khop query from the current snapshot.
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
	g := s.snapshotFor(ctx)
	scr := traceFrom(ctx).scratch()
	base := len(scr.verts)
	ctx, end := traceFrom(ctx).stageCtx(ctx, "kernel", telemetry.L("kernel", "khop"))
	verts, err := kernels.AppendKHopNeighborhoodCtx(ctx, scr.verts, g, seeds, k)
	end()
	if err != nil {
		return nil, err
	}
	scr.verts = verts
	return &wire.KHopResult{Seeds: seeds, K: k, Count: len(verts) - base, Vertices: verts[base:]}, nil
}

// runTopDegree answers a topdegree query. In incremental mode top-k is
// served from the per-version degree vector, advanced over the delta window
// instead of re-read from the CSR; the O(n log k) selection itself is too
// cheap to stage.
func (s *Server) runTopDegree(ctx context.Context, k int) (*wire.TopDegreeResult, error) {
	if k <= 0 {
		return nil, badRequest("bad k %d", k)
	}
	var top []kernels.ScoredVertex
	if s.cfg.Incremental {
		g, version := s.snapshotVersionedFor(ctx)
		st, err := s.degreeVector(ctx, g, version)
		if err != nil {
			return nil, err
		}
		top = kernels.TopKByScore(st.degrees, k)
	} else {
		g := s.snapshotFor(ctx)
		var err error
		ctx, end := traceFrom(ctx).stageCtx(ctx, "kernel", telemetry.L("kernel", "topdegree"))
		top, err = kernels.TopKByDegreeCtx(ctx, g, k)
		end()
		if err != nil {
			return nil, err
		}
	}
	return &wire.TopDegreeResult{K: k, Results: scoredToWire(top)}, nil
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

// runComponent answers a component query from the per-version WCC cache.
func (s *Server) runComponent(ctx context.Context, v int32) (*wire.ComponentResult, error) {
	if err := s.checkVertex(v); err != nil {
		return nil, err
	}
	g, version := s.snapshotVersionedFor(ctx)
	st, err := s.components(ctx, g, version)
	if err != nil {
		return nil, err
	}
	label := st.cc.Label[v]
	return &wire.ComponentResult{
		V:             v,
		Component:     label,
		Size:          st.sizes[label],
		NumComponents: st.cc.NumComponents,
		Version:       st.version,
	}, nil
}

// runPageRankVertex answers a single-vertex pagerank query from the
// per-version rank cache.
func (s *Server) runPageRankVertex(ctx context.Context, v int32) (*wire.PageRankResult, error) {
	if err := s.checkVertex(v); err != nil {
		return nil, err
	}
	g, version := s.snapshotVersionedFor(ctx)
	st, err := s.pagerank(ctx, g, version)
	if err != nil {
		return nil, err
	}
	rank := st.rank[v]
	return &wire.PageRankResult{V: &v, Rank: &rank, Iterations: st.iters, Version: st.version}, nil
}

// runPageRankTop answers a top-k pagerank query from the per-version rank
// cache.
func (s *Server) runPageRankTop(ctx context.Context, k int) (*wire.PageRankResult, error) {
	if k <= 0 {
		return nil, badRequest("bad k %d", k)
	}
	g, version := s.snapshotVersionedFor(ctx)
	st, err := s.pagerank(ctx, g, version)
	if err != nil {
		return nil, err
	}
	top := kernels.TopKByScore(st.rank, k)
	return &wire.PageRankResult{K: k, Results: scoredToWire(top), Iterations: st.iters, Version: st.version}, nil
}

// maxBatchSubs bounds one batch request's sub-query count.
const maxBatchSubs = 1024

// batchSub is one prepared sub-query of a batch request: params already
// decoded and captured, ready to run under the batch's context.
type batchSub func(ctx context.Context) (any, error)

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

// runBatch executes the sub-queries sequentially under one admission slot
// and one trace (each sub still records its own kernel stage). Sub-query
// failures — including per-sub deadline expiry once ctx dies — land in the
// corresponding item, never fail the envelope.
func (s *Server) runBatch(ctx context.Context, subs []batchSub) []batchItem {
	items := make([]batchItem, len(subs))
	for i, run := range subs {
		out, err := run(ctx)
		if err != nil {
			items[i] = batchItem{Status: statusFor(err), Err: err.Error()}
			continue
		}
		items[i] = batchItem{Status: http.StatusOK, Result: out}
	}
	return items
}
