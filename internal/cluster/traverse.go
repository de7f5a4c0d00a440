package cluster

import (
	"context"
	"slices"

	"repro/internal/kernels"
	"repro/internal/reqscratch"
	"repro/internal/wire"
)

// Per-request traversals: khop and jaccard touch a neighbourhood, not the
// graph, so unlike the BSP gathers in bsp.go they run on every request, on
// the kernels' own pooled scratch and the request's result scratch, and
// cache nothing. Results alias scr until the caller puts it back (see
// internal/reqscratch): the front end does so after encoding, and the
// exported Go methods copy the answer out first.

// adjacency fetches the complete neighbor lists of vertices, one shard.adj
// exchange per shard that owns any of them, and returns them in the order
// of vertices. Each shard answers into its own flat buffers in scr, and the
// lists returned alias them: they live until the next exchange on scr.
// vertices may alias the previous exchange's answer; it is read in full
// before any shard is asked.
func (c *Coordinator) adjacency(ctx context.Context, scr *reqscratch.Scratch, vertices []int32) ([][]int32, error) {
	adj := scr.AdjFor(len(c.shards))
	for i, v := range vertices {
		a := &adj[Owner(v, len(adj))]
		a.Want = append(a.Want, v)
		a.Pos = append(a.Pos, i)
	}
	to := wireTimeout(ctx)
	err := c.fanOut(func(sc *shardConn) error {
		a := &adj[sc.index]
		if len(a.Want) == 0 {
			return nil
		}
		return sc.call(func(cl *wire.Client) error {
			if err := cl.ShardAdj(a.Want, to, &a.ShardAdjResult); err != nil {
				return err
			}
			if a.Len() != len(a.Want) {
				return badRequestf("shard %d returned %d adjacency lists, want %d", sc.index, a.Len(), len(a.Want))
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	lists := slices.Grow(scr.Lists[:0], len(vertices))[:len(vertices)]
	for i := range adj {
		for j, pos := range adj[i].Pos {
			lists[pos] = adj[i].List(j)
		}
	}
	scr.Lists = lists
	return lists, nil
}

// khop replays kernels.AppendKHopNeighborhoodCtx level by level on the same
// pooled visited set, whose first-touch list is the BFS discovery order: for
// each level fetch the frontier's adjacency (one exchange per owning shard)
// and expand the frontier in its original order, so the result bytes match
// the single-process kernel exactly. The order is appended to scr.Verts.
func (c *Coordinator) khop(ctx context.Context, scr *reqscratch.Scratch, seeds []int32, k int32) ([]int32, error) {
	seen := kernels.BorrowVertexCounts(c.cfg.Vertices)
	defer kernels.ReturnVertexCounts(seen)
	for _, s := range seeds {
		seen.Probe(s)
	}
	lo := 0
	for d := int32(1); d <= k && lo < seen.Len(); d++ {
		lists, err := c.adjacency(ctx, scr, seen.Touched()[lo:])
		if err != nil {
			return nil, err
		}
		lo = seen.Len()
		for _, list := range lists {
			for _, w := range list {
				seen.Probe(w)
			}
		}
	}
	base := len(scr.Verts)
	scr.Verts = append(scr.Verts, seen.Touched()...)
	return scr.Verts[base:], nil
}

// jaccard replays kernels.AppendJaccardFromVertexCtx by scatter-gathering
// two adjacency waves (u's neighbors, then their neighbors) into the same
// pooled accumulator and handing it to the kernel's own score-and-rank
// routine with the global degree vector, so the order of the answer is the
// kernel's by construction. The pairs are appended to scr.Pairs.
func (c *Coordinator) jaccard(ctx context.Context, scr *reqscratch.Scratch, u int32, threshold float64) ([]wire.JaccardPair, error) {
	adjU, err := c.adjacency(ctx, scr, []int32{u})
	if err != nil {
		return nil, err
	}
	nu := adjU[0]
	base := len(scr.Pairs)
	if len(nu) == 0 {
		return scr.Pairs[base:], nil
	}
	deg, _, err := c.degrees(ctx)
	if err != nil {
		return nil, err
	}
	lists, err := c.adjacency(ctx, scr, nu)
	if err != nil {
		return nil, err
	}
	common := kernels.BorrowVertexCounts(c.cfg.Vertices)
	defer kernels.ReturnVertexCounts(common)
	for _, list := range lists {
		for _, v := range list {
			if v != u {
				common.Add(v, 1)
			}
		}
	}
	degree := func(v int32) int32 { return int32(deg.scores[v]) }
	scr.Scores = kernels.AppendJaccardRanked(scr.Scores[:0], common, u, degree, threshold)
	scr.Pairs = slices.Grow(scr.Pairs, len(scr.Scores))
	for _, sc := range scr.Scores {
		scr.Pairs = append(scr.Pairs, wire.JaccardPair{V: sc.V, Score: sc.Score, Inter: sc.Inter})
	}
	return scr.Pairs[base:], nil
}
