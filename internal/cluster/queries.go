package cluster

import (
	"context"

	"repro/internal/kernels"
	"repro/internal/reqscratch"
	"repro/internal/wire"
)

// The query methods behind Run. Each returns the same wire result struct the
// shard server's dispatch layer builds, so the differential e2e suite and
// graphd's front end, which graphctl serves through Run, treat a coordinator
// exactly like a big graphd. Global reads (component, pagerank, topdegree)
// serve the last cached answer when a shard is down — stale beats
// unavailable for whole-graph summaries — while traversals (khop, jaccard)
// fail if a shard they must touch is gone, because there is no correct
// stale answer for point adjacency.

// Run answers one query request — jaccard, khop, topdegree, component or
// pagerank — for the front end. Traversal answers are built in scr and alias
// it until the caller puts it back; the rest are the caller's.
func (c *Coordinator) Run(ctx context.Context, scr *reqscratch.Scratch, req *wire.Request) (any, error) {
	switch req.Op {
	case wire.OpJaccard:
		return c.jaccardIn(ctx, scr, req.U, req.Threshold)
	case wire.OpKHop:
		return c.khopIn(ctx, scr, req.Seeds, req.K)
	case wire.OpTopDegree:
		return c.topDegree(ctx, req.TopK())
	case wire.OpComponent:
		return c.component(ctx, req.V)
	case wire.OpPageRank:
		if req.HasV {
			return c.pageRankVertex(ctx, req.V)
		}
		return c.pageRankTop(ctx, req.TopK())
	default:
		return nil, badRequestf("op %s is not a cluster query", wire.OpName(req.Op))
	}
}

// component answers the component membership query for v from the merged
// distributed WCC, byte-identical to a single graphd holding the union of
// all shards (Version excepted: the cluster reports the summed shard
// versions).
func (c *Coordinator) component(ctx context.Context, v int32) (*wire.ComponentResult, error) {
	if err := c.checkVertex(v); err != nil {
		return nil, err
	}
	st, _, err := c.components(ctx)
	if err != nil {
		return nil, err
	}
	lab := st.labels[v]
	return &wire.ComponentResult{
		V:             v,
		Component:     lab,
		Size:          st.sizes[lab],
		NumComponents: st.num,
		Version:       st.vec.sum(),
	}, nil
}

// khopIn answers the k-hop neighborhood query by distributed frontier
// expansion, byte-identical to the single-process kernel (same BFS
// discovery order). The answer is built in scr, which it aliases.
func (c *Coordinator) khopIn(ctx context.Context, scr *reqscratch.Scratch, seeds []int32, k int32) (*wire.KHopResult, error) {
	if len(seeds) == 0 {
		return nil, badRequestf("khop: at least one seed required")
	}
	if k < 0 {
		return nil, badRequestf("khop: k must be non-negative, got %d", k)
	}
	for _, s := range seeds {
		if err := c.checkVertex(s); err != nil {
			return nil, err
		}
	}
	order, err := c.khop(ctx, scr, seeds, k)
	if err != nil {
		return nil, err
	}
	return &wire.KHopResult{Seeds: seeds, K: k, Count: len(order), Vertices: order}, nil
}

// topDegree answers the top-k degree query. The coordinator assembles the
// full global degree vector and runs the same heap selection as a single
// graphd — merging per-shard top-k lists would break byte-identity because
// the heap's tie order depends on scan structure.
func (c *Coordinator) topDegree(ctx context.Context, k int32) (*wire.TopDegreeResult, error) {
	if k <= 0 {
		return nil, badRequestf("topdegree: k must be positive, got %d", k)
	}
	deg, _, err := c.degrees(ctx)
	if err != nil {
		return nil, err
	}
	top := kernels.TopKByScore(deg.scores, int(k))
	out := &wire.TopDegreeResult{K: int(k), Results: make([]wire.ScoredVertex, len(top))}
	for i, sv := range top {
		out.Results[i] = wire.ScoredVertex{V: sv.V, Score: sv.Score}
	}
	return out, nil
}

// jaccardIn answers the neighborhood-similarity query for u by adjacency
// scatter-gather, byte-identical to the single-process kernel. The answer
// is built in scr, which it aliases.
func (c *Coordinator) jaccardIn(ctx context.Context, scr *reqscratch.Scratch, u int32, threshold float64) (*wire.JaccardResult, error) {
	if err := c.checkVertex(u); err != nil {
		return nil, err
	}
	if err := wire.CheckThreshold(threshold); err != nil {
		return nil, err
	}
	pairs, err := c.jaccard(ctx, scr, u, threshold)
	if err != nil {
		return nil, err
	}
	return &wire.JaccardResult{U: u, Results: pairs}, nil
}

// pageRankVertex answers the single-vertex PageRank query from the
// distributed superstep-driven rank vector.
func (c *Coordinator) pageRankVertex(ctx context.Context, v int32) (*wire.PageRankResult, error) {
	if err := c.checkVertex(v); err != nil {
		return nil, err
	}
	st, _, err := c.pagerank(ctx)
	if err != nil {
		return nil, err
	}
	rank := st.rank[v]
	return &wire.PageRankResult{V: &v, Rank: &rank, Iterations: st.iters, Version: st.vec.sum()}, nil
}

// pageRankTop answers the top-k PageRank query from the distributed rank
// vector, using the same heap selection as a single graphd.
func (c *Coordinator) pageRankTop(ctx context.Context, k int32) (*wire.PageRankResult, error) {
	if k <= 0 {
		return nil, badRequestf("pagerank: k must be positive, got %d", k)
	}
	st, _, err := c.pagerank(ctx)
	if err != nil {
		return nil, err
	}
	top := kernels.TopKByScore(st.rank, int(k))
	out := &wire.PageRankResult{K: int(k), Results: make([]wire.ScoredVertex, len(top)), Iterations: st.iters, Version: st.vec.sum()}
	for i, sv := range top {
		out.Results[i] = wire.ScoredVertex{V: sv.V, Score: sv.Score}
	}
	return out, nil
}

// ShardStatus is one shard's entry in ClusterStats.
type ShardStatus struct {
	// Index is the shard's partition index.
	Index int `json:"index"`
	// WireAddr is the shard's wire listener address.
	WireAddr string `json:"wire_addr"`
	// HTTPAddr is the shard's HTTP listener address ("" if unconfigured).
	HTTPAddr string `json:"http_addr,omitempty"`
	// Reachable reports the last wire poll outcome.
	Reachable bool `json:"reachable"`
	// Ready reports the shard's aggregated readiness verdict.
	Ready bool `json:"ready"`
	// Version is the shard's snapshot version at the last successful poll.
	Version int64 `json:"version"`
	// Owned is the shard's owned-vertex count at the last successful poll.
	Owned int64 `json:"owned_vertices"`
}

// ClusterStats is the coordinator's /stats payload.
type ClusterStats struct {
	// Vertices is the shared vertex-ID space.
	Vertices int32 `json:"vertices"`
	// Directed reports the graph orientation.
	Directed bool `json:"directed"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Ready is how many shards currently pass all checks.
	Ready int `json:"shards_ready"`
	// Version is the cluster version (sum of shard versions) at the last
	// successful polls.
	Version int64 `json:"version"`
	// ShardInfo holds one entry per shard in partition order.
	ShardInfo []ShardStatus `json:"shard_info"`
}

// Stats reports the coordinator's view of the cluster from the latest poll
// state (no shard round-trips).
func (c *Coordinator) Stats() ClusterStats {
	st := ClusterStats{
		Vertices: c.cfg.Vertices,
		Directed: c.cfg.Directed,
		Shards:   len(c.shards),
	}
	for _, sc := range c.shards {
		sc.stMu.Lock()
		info := ShardStatus{
			Index:     sc.index,
			WireAddr:  sc.addr.Wire,
			HTTPAddr:  sc.addr.HTTP,
			Reachable: sc.reachable,
			Ready:     sc.reachable && sc.registered && (sc.addr.HTTP == "" || sc.httpReady),
			Version:   sc.version,
			Owned:     sc.owned,
		}
		sc.stMu.Unlock()
		if info.Ready {
			st.Ready++
		}
		st.Version += info.Version
		st.ShardInfo = append(st.ShardInfo, info)
	}
	return st
}
