package cluster

import (
	"context"
	"slices"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// Per-request traversals: khop and jaccard touch a neighbourhood, not the
// graph, so unlike the BSP gathers in bsp.go they run on every request, on
// the kernels' own pooled scratch, and cache nothing.

// adjacency fetches the complete neighbor lists of the given vertices,
// grouped by owner, one shard.adj exchange per involved shard, results
// reassembled into the callers' original order. The returned slices alias
// shard response buffers and must be treated as immutable.
func (c *Coordinator) adjacency(ctx context.Context, vertices []int32) ([][]int32, error) {
	shards := len(c.shards)
	to := wireTimeout(ctx)
	perShard := make([][]int32, shards)
	perShardPos := make([][]int, shards)
	for i, v := range vertices {
		o := Owner(v, shards)
		perShard[o] = append(perShard[o], v)
		perShardPos[o] = append(perShardPos[o], i)
	}
	out := make([][]int32, len(vertices))
	err := c.fanOut(func(sc *shardConn) error {
		want := perShard[sc.index]
		if len(want) == 0 {
			return nil
		}
		return sc.call(func(cl *wire.Client) error {
			res, err := cl.ShardAdj(want, to)
			if err != nil {
				return err
			}
			if len(res.Lists) != len(want) {
				return badRequestf("shard %d returned %d adjacency lists, want %d", sc.index, len(res.Lists), len(want))
			}
			for j, pos := range perShardPos[sc.index] {
				out[pos] = res.Lists[j]
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// khop replays kernels.AppendKHopNeighborhoodCtx level by level on the same
// pooled visited set, whose first-touch list is the BFS discovery order: for
// each level fetch the frontier's adjacency (one exchange per owning shard)
// and expand the frontier in its original order, so the result bytes match
// the single-process kernel exactly.
func (c *Coordinator) khop(ctx context.Context, seeds []int32, k int32) ([]int32, error) {
	seen := kernels.BorrowVertexCounts(c.cfg.Vertices)
	defer kernels.ReturnVertexCounts(seen)
	for _, s := range seeds {
		seen.Probe(s)
	}
	lo := 0
	for d := int32(1); d <= k && lo < seen.Len(); d++ {
		lists, err := c.adjacency(ctx, seen.Touched()[lo:])
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
	return slices.Clone(seen.Touched()), nil
}

// jaccard replays kernels.AppendJaccardFromVertexCtx by scatter-gathering
// two adjacency waves (u's neighbors, then their neighbors) into the same
// pooled accumulator and handing it to the kernel's own score-and-rank
// routine with the global degree vector, so the order of the answer is the
// kernel's by construction.
func (c *Coordinator) jaccard(ctx context.Context, u int32, threshold float64) ([]wire.JaccardPair, error) {
	adjU, err := c.adjacency(ctx, []int32{u})
	if err != nil {
		return nil, err
	}
	nu := adjU[0]
	if len(nu) == 0 {
		return nil, nil
	}
	deg, _, err := c.degrees(ctx)
	if err != nil {
		return nil, err
	}
	lists, err := c.adjacency(ctx, nu)
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
	scores := kernels.AppendJaccardRanked(nil, common, u, degree, threshold)
	pairs := make([]wire.JaccardPair, len(scores))
	for i, sc := range scores {
		pairs[i] = wire.JaccardPair{V: sc.V, Score: sc.Score, Inter: sc.Inter}
	}
	return pairs, nil
}
