package server

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// graphd as the front end's backend (frontend.go): admission against the
// worker budget, the state the answers read — the published bundles'
// whole-graph kernels, khop and jaccard over the published snapshot — and
// the ingest core. Both transports reach them through the same dispatch and
// answer path, so a query is answered identically — same snapshot
// discipline, same caches, same SLO accounting — whichever it arrived on.

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
func (s *Server) readiness() wire.Readiness {
	r := s.evalReady(true)
	ready := 0.0
	if r.Ready {
		ready = 1
	}
	s.m.ready.Set(ready)
	return r
}

// wholeKernel is the bundle part each whole-graph read takes.
func wholeKernel(op byte) kernel {
	switch op {
	case wire.OpComponent:
		return kernWCC
	case wire.OpPageRank:
		return kernPR
	default:
		return kernDeg
	}
}

// whole reads the published kernel result op's answer needs.
func (s *Server) whole(ctx context.Context, _ *reqTrace, op byte) (whole, error) {
	p, err := s.read(ctx, wholeKernel(op))
	if err != nil {
		return whole{}, err
	}
	w := whole{version: p.version, sizes: p.sizes, scores: p.vec, iters: p.iters}
	if p.cc != nil {
		w.labels, w.components = p.cc.Label, p.cc.NumComponents
	}
	return w, nil
}

// exchange answers the shard-exchange ops.
func (s *Server) exchange(ctx context.Context, _ *reqTrace, req *wire.Request) (any, error) {
	switch req.Op {
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

// ingest is the ingest core both transports share once the front end has
// checked a request's edits: refused with 503 while draining, then admitted
// in rt's "enqueue" stage — 202, or 429 with the accepted prefix.
func (s *Server) ingest(rt *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, wire.Errorf(http.StatusServiceUnavailable, "server is draining")
	}
	st := rt.stage("enqueue")
	res := s.enqueue(edits)
	st.end()
	rt.root.SetAttr("accepted", strconv.Itoa(res.Accepted))
	if res.Rejected > 0 {
		rt.root.SetAttr("status", "backpressure")
		return &res, http.StatusTooManyRequests, nil
	}
	return &res, http.StatusAccepted, nil
}

// jaccard ranks u's similar vertices on the published snapshot.
func (s *Server) jaccard(ctx context.Context, rt *reqTrace, u int32, threshold float64) ([]kernels.JaccardPairScore, error) {
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	scr := &rt.scr
	ctx, st := rt.stageCtx(ctx, "kernel", telemetry.L("kernel", "jaccard"))
	scores, err := kernels.AppendJaccardFromVertexCtx(ctx, scr.Scores[:0], p.g, u, threshold)
	st.end()
	if err != nil {
		return nil, err
	}
	scr.Scores = scores
	return scores, nil
}

// khop walks seeds' k-hop neighbourhood on the published snapshot.
func (s *Server) khop(ctx context.Context, rt *reqTrace, seeds []int32, k int32) ([]int32, error) {
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	scr := &rt.scr
	base := len(scr.Verts)
	ctx, st := rt.stageCtx(ctx, "kernel", telemetry.L("kernel", "khop"))
	verts, err := kernels.AppendKHopNeighborhoodCtx(ctx, scr.Verts, p.g, seeds, k)
	st.end()
	if err != nil {
		return nil, err
	}
	scr.Verts = verts
	return verts[base:], nil
}
