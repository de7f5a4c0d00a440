package kernels

import (
	"context"
	"math"
	"strconv"

	"repro/internal/graph"
	"repro/internal/par"
)

// PageRankOptions configures the PageRank kernels.
type PageRankOptions struct {
	Damping   float64 // typically 0.85
	Tolerance float64 // L1 convergence threshold
	MaxIters  int
}

// DefaultPageRankOptions returns the standard 0.85 / 1e-7 / 100 setup.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Tolerance: 1e-7, MaxIters: 100}
}

// PageRank runs power iteration (pull style) over the transpose: each
// vertex gathers rank/outdegree from its in-neighbors. Dangling-vertex mass
// is redistributed uniformly, so ranks always sum to 1. Returns the rank
// vector and the iterations used. It is PageRankCtx under
// context.Background().
func PageRank(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	rank, iters, _ := PageRankCtx(context.Background(), g, opt)
	return rank, iters
}

// prChunk is one chunk's share of a PageRank pass: the L1 change of its
// ranks and the rank its dangling vertices hold.
type prChunk struct{ delta, dangling float64 }

// PageRankCtx is PageRank with cooperative cancellation at chunk and
// iteration boundaries; a cancelled run returns a nil rank vector.
//
// Each iteration is one pass. The pull gathers contrib[u] = rank[u]/deg(u),
// written by the previous pass, so rank itself is updated in place; the
// same pass writes the next contributions, and sums the L1 delta and the
// next iteration's dangling mass into per-chunk partials that are kept
// across iterations and folded in chunk order. The arithmetic, and the
// chunk-ordered folds, are those of a dangling-sum, pull and delta-sum
// pass run one after the other, so the ranks are byte-identical for any
// worker count. Working storage is the rank vector, two contribution
// vectors and the partials.
func PageRankCtx(ctx context.Context, g *graph.Graph, opt PageRankOptions) ([]float64, int, error) {
	ctx, sp := kernelSpan(ctx, "kernel.pagerank")
	defer sp.End()
	n := g.NumVertices()
	if n == 0 {
		return nil, 0, par.CtxErr(ctx)
	}
	gt := g
	if g.Directed() {
		gt = g.Transpose()
	}
	rank := make([]float64, n)
	contrib := make([]float64, n)
	next := make([]float64, n)
	invN := 1.0 / float64(n)
	base, first := 0.0, true
	pass := func(_, lo, hi int) prChunk {
		first, base, damping := first, base, opt.Damping // register copies
		var c prChunk
		for v := int32(lo); v < int32(hi); v++ {
			r := invN
			if !first {
				sum := 0.0
				for _, u := range gt.Neighbors(v) {
					sum += contrib[u]
				}
				r = base + damping*sum
				c.delta += math.Abs(r - rank[v])
			}
			rank[v] = r
			if d := g.Degree(v); d > 0 {
				next[v] = r / float64(d)
			} else {
				next[v] = 0
				c.dangling += r
			}
		}
		return c
	}
	popt := par.Opt{Name: "pagerank.pull"}
	// The opening pass sets the uniform ranks and their contributions.
	parts, err := par.AppendChunksCtx(ctx, nil, int(n), popt, pass)
	if err != nil {
		return nil, 0, err
	}
	first = false
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		delta, dangling := 0.0, 0.0
		for _, p := range parts {
			delta, dangling = delta+p.delta, dangling+p.dangling
		}
		if iters > 0 && delta < opt.Tolerance {
			break
		}
		base = (1-opt.Damping)*invN + opt.Damping*dangling*invN
		contrib, next = next, contrib
		if parts, err = par.AppendChunksCtx(ctx, parts[:0], int(n), popt, pass); err != nil {
			return nil, 0, err
		}
	}
	if sp != nil {
		sp.SetAttr("iters", strconv.Itoa(iters))
	}
	return rank, iters, nil
}

// PageRankPush runs the push/residual formulation (Gauss-Seidel style):
// vertices with residual above threshold push damped mass to out-neighbors.
// It converges to the same fixed point as power iteration and serves both as
// an oracle and as the incremental building block the streaming engine
// reuses. Returns rank estimates and push operations executed.
func PageRankPush(g *graph.Graph, opt PageRankOptions) ([]float64, int64) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	invN := 1.0 / float64(n)
	rank := make([]float64, n)
	residual := make([]float64, n)
	inQueue := make([]bool, n)
	queue := make([]int32, 0, n)
	for v := int32(0); v < n; v++ {
		residual[v] = (1 - opt.Damping) * invN
		queue = append(queue, v)
		inQueue[v] = true
	}
	thresh := opt.Tolerance * invN
	if thresh <= 0 {
		thresh = 1e-12
	}
	var pushes int64
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		r := residual[v]
		if r < thresh {
			continue
		}
		residual[v] = 0
		rank[v] += r
		d := float64(g.Degree(v))
		if d == 0 {
			// Dangling: spread to all vertices lazily via a uniform term is
			// expensive; approximate by dropping (mass renormalized below),
			// matching the common push-variant treatment.
			continue
		}
		share := opt.Damping * r / d
		for _, w := range g.Neighbors(v) {
			residual[w] += share
			pushes++
			if !inQueue[w] && residual[w] >= thresh {
				inQueue[w] = true
				queue = append(queue, w)
			}
		}
	}
	// Renormalize to sum 1 for comparability with power iteration.
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if sum > 0 {
		for i := range rank {
			rank[i] /= sum
		}
	}
	return rank, pushes
}
