package server

import (
	"context"
	"net/http"
	"slices"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// The one answer path, for both binaries and both transports. A client
// query is checked here (wire.Request.Check; ingest edits by
// wire.CheckEdits) before any backend sees it, and its answer — the wire
// result struct — is built here from what the backend reads: one versioned
// whole-graph state for component, pagerank and topdegree, and the khop and
// jaccard primitives, which write into the request's scratch. The shard
// exchanges are graphd's own and pass through to it.

// whole is one versioned read of whole-graph state; a read fills the
// fields its op answers from.
type whole struct {
	version int64
	// labels are the canonical min-member component labels, sizes the
	// members per label, components their count (component).
	labels     []int32
	sizes      []int64
	components int32
	// scores are the ranks (pagerank) or the degrees (topdegree).
	scores []float64
	// iters is how many power iterations the ranks took (pagerank).
	iters int
}

// run checks one query and answers it: the client queries here, the shard
// exchanges by the backend.
func (fe *frontEnd) run(ctx context.Context, rt *reqTrace, req *wire.Request) (any, error) {
	if err := req.Check(fe.vertices); err != nil {
		return nil, err
	}
	switch req.Op {
	case wire.OpJaccard:
		scores, err := fe.back.jaccard(ctx, rt, req.U, req.Threshold)
		if err != nil {
			return nil, err
		}
		scr := &rt.scr
		base := len(scr.Pairs)
		scr.Pairs = slices.Grow(scr.Pairs, len(scores))
		for _, sc := range scores {
			scr.Pairs = append(scr.Pairs, wire.JaccardPair{V: sc.V, Score: sc.Score, Inter: sc.Inter})
		}
		return &wire.JaccardResult{U: req.U, Results: scr.Pairs[base:]}, nil
	case wire.OpKHop:
		verts, err := fe.back.khop(ctx, rt, req.Seeds, req.K)
		if err != nil {
			return nil, err
		}
		return &wire.KHopResult{Seeds: req.Seeds, K: req.K, Count: len(verts), Vertices: verts}, nil
	case wire.OpComponent, wire.OpPageRank, wire.OpTopDegree:
	default:
		return fe.back.exchange(ctx, rt, req)
	}
	w, err := fe.back.whole(ctx, rt, req.Op)
	if err != nil {
		return nil, err
	}
	// The O(n log k) top-k selection is too cheap to stage.
	k := int(req.TopK())
	switch {
	case req.Op == wire.OpComponent:
		label := w.labels[req.V]
		return &wire.ComponentResult{V: req.V, Component: label, Size: w.sizes[label], NumComponents: w.components, Version: w.version}, nil
	case req.Op == wire.OpTopDegree:
		return &wire.TopDegreeResult{K: k, Results: topK(w.scores, k)}, nil
	case req.HasV:
		v, rank := req.V, w.scores[req.V]
		return &wire.PageRankResult{V: &v, Rank: &rank, Iterations: w.iters, Version: w.version}, nil
	default:
		return &wire.PageRankResult{K: k, Results: topK(w.scores, k), Iterations: w.iters, Version: w.version}, nil
	}
}

// topK selects the k best scores in the shared wire type (same fields as
// kernels' own; internal/wire imports nothing from the repo, so the k
// entries are copied).
func topK(scores []float64, k int) []wire.ScoredVertex {
	top := kernels.TopKByScore(scores, k)
	out := make([]wire.ScoredVertex, len(top))
	for i, sv := range top {
		out[i] = wire.ScoredVertex{V: sv.V, Score: sv.Score}
	}
	return out
}

// submit checks ingest edits and hands them to the backend.
func (fe *frontEnd) submit(rt *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error) {
	if err := wire.CheckEdits(edits, fe.vertices); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return fe.back.ingest(rt, edits)
}
