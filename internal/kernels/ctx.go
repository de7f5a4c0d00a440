package kernels

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// Context-aware kernel entry points for the serving path (internal/server).
// Each variant produces output byte-identical to its batch counterpart when
// it runs to completion, and returns the cancellation error promptly after
// cancellation: parallel loops go through par.ForCtx/ReduceCtx
// (cancellation observed at chunk boundaries, overshoot bounded to one
// chunk per worker), sequential loops check the context every
// ctxCheckEvery iterations. All checks go through par.CtxErr, which also
// compares time.Now() against the context deadline directly, so expiry is
// enforced even when a single-P runtime never services the context timer.
// A cancelled call returns a nil result (the Append forms: dst as it was
// passed); partial work is discarded.

// ctxCheckEvery is how many sequential-loop iterations run between context
// checks — coarse enough to keep the check off the hot path, fine enough
// that a deadline stops a scan within tens of microseconds.
const ctxCheckEvery = 4096

// kernelSpan opens a kernel-exec child span under the request span carried
// by ctx (nil, costing nothing, when the request is untraced) and returns a
// context rebound to it so the par scheduler's per-invocation spans nest
// under the kernel rather than the raw request.
func kernelSpan(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	sp := telemetry.SpanFromContext(ctx).Child(name)
	return telemetry.ContextWithSpan(ctx, sp), sp
}

// KHopNeighborhoodCtx is KHopNeighborhood with cooperative cancellation;
// the returned slice is freshly allocated and owned by the caller.
func KHopNeighborhoodCtx(ctx context.Context, g *graph.Graph, seeds []int32, k int32) ([]int32, error) {
	return AppendKHopNeighborhoodCtx(ctx, nil, g, seeds, k)
}

// AppendKHopNeighborhoodCtx appends the k-hop neighborhood of the seeds to
// dst in BFS discovery order, checking ctx per level and every
// ctxCheckEvery frontier expansions. The visited set is a pooled SPA whose
// first-touch list is the discovery order, so a level's frontier is the
// tail of the order so far and only dst's growth allocates.
func AppendKHopNeighborhoodCtx(ctx context.Context, dst []int32, g *graph.Graph, seeds []int32, k int32) ([]int32, error) {
	_, sp := kernelSpan(ctx, "kernel.khop")
	defer sp.End()
	seen := BorrowVertexCounts(g.NumVertices())
	defer ReturnVertexCounts(seen)
	for _, s := range seeds {
		seen.Probe(s)
	}
	steps, lo := 0, 0
	for d := int32(1); d <= k && lo < seen.Len(); d++ {
		if err := par.CtxErr(ctx); err != nil {
			return dst, err
		}
		// Probe may move the list it appends to, never rewrite this prefix.
		frontier := seen.Touched()[lo:]
		lo += len(frontier)
		for _, v := range frontier {
			if steps++; steps%ctxCheckEvery == 0 {
				if err := par.CtxErr(ctx); err != nil {
					return dst, err
				}
			}
			for _, w := range g.Neighbors(v) {
				seen.Probe(w)
			}
		}
	}
	return append(dst, seen.Touched()...), nil
}

// JaccardFromVertexCtx is JaccardFromVertex with cooperative cancellation;
// the returned slice is freshly allocated and owned by the caller.
func JaccardFromVertexCtx(ctx context.Context, g *graph.Graph, u int32, threshold float64) ([]JaccardPairScore, error) {
	return AppendJaccardFromVertexCtx(ctx, nil, g, u, threshold)
}

// AppendJaccardFromVertexCtx appends to dst every vertex with a nonzero
// Jaccard coefficient with u (at or above threshold), best first, with a
// context check every ctxCheckEvery wedge expansions — the query cost is
// the 2-hop neighborhood of u, which on a hub vertex can be most of the
// graph. Counting and ranking run on pooled scratch: only dst's growth
// allocates.
func AppendJaccardFromVertexCtx(ctx context.Context, dst []JaccardPairScore, g *graph.Graph, u int32, threshold float64) ([]JaccardPairScore, error) {
	_, sp := kernelSpan(ctx, "kernel.jaccard")
	defer sp.End()
	if err := par.CtxErr(ctx); err != nil {
		return dst, err
	}
	common := BorrowVertexCounts(g.NumVertices())
	defer ReturnVertexCounts(common)
	steps := 0
	for _, x := range g.Neighbors(u) {
		for _, v := range g.Neighbors(x) {
			if steps++; steps%ctxCheckEvery == 0 {
				if err := par.CtxErr(ctx); err != nil {
					return dst, err
				}
			}
			if v != u {
				common.Add(v, 1)
			}
		}
	}
	out := AppendJaccardRanked(dst, common, u, g.Degree, threshold)
	if err := par.CtxErr(ctx); err != nil {
		return dst, err
	}
	return out, nil
}

// TopKByDegreeCtx is TopKByDegree bracketed by context checks. The scan is
// one cheap O(n) pass, so a mid-scan deadline at worst finishes the pass
// and reports the expiry on return.
func TopKByDegreeCtx(ctx context.Context, g *graph.Graph, k int) ([]ScoredVertex, error) {
	_, sp := kernelSpan(ctx, "kernel.topdegree")
	defer sp.End()
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	out := TopKByDegree(g, k)
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	return out, nil
}
