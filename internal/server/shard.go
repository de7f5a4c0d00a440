package server

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/par"
	"repro/internal/wire"
)

// Shard mode: a graphd started with -shard-index/-shard-count owns the
// vertices cluster.Owner assigns to its index and answers the wire
// shard-exchange ops from that owned set. shard.degrees, shard.wcc,
// shard.prstep and shard.adj run through the same dispatch core as client
// queries — admission, tracing, metrics, and SLO accounting are identical —
// under those endpoint labels. shard.meta, the coordinator's version probe
// and health poll, does not: it reads one atomic, the configured shape and
// the readiness checks' inputs, so wireRespond answers it before any trace
// state is built, as it does ping and stats, and only counts it (server_queries_total and
// server_query_seconds under op="shard.meta"). A standalone server
// (ShardCount <= 1) still answers the ops as the degenerate one-shard
// cluster, which is what the differential e2e suite compares against.

// shardOpCheckEvery is how many sequential owned-vertex iterations run
// between context checks in the shard-op scans.
const shardOpCheckEvery = 8192

// shardCount resolves the configured shard count, treating the standalone
// defaults (0 or 1) as a one-shard cluster.
func (s *Server) shardCount() int {
	if s.cfg.ShardCount > 1 {
		return s.cfg.ShardCount
	}
	return 1
}

// ownsVertex reports whether this server owns v under the cluster partition.
func (s *Server) ownsVertex(v int32) bool {
	return cluster.Owner(v, s.shardCount()) == s.cfg.ShardIndex
}

// shardMeta answers the registration/health-poll op: the shard's cluster
// position, graph shape, visible version, and the /readyz verdict with its
// failing checks (it reads no bundle, so it neither marks one read nor
// waits for a build).
func (s *Server) shardMeta() wire.ShardMeta {
	r := s.evalReady(false)
	return wire.ShardMeta{
		Index:    s.cfg.ShardIndex,
		Count:    s.shardCount(),
		Vertices: s.cfg.Vertices,
		Directed: s.cfg.Directed,
		Owned:    s.ownedCount,
		Version:  s.version.Load(),
		Ready:    r.Ready,
		Detail:   failing(r),
	}
}

// runShardDegrees answers the owned vertices' degrees in ascending vertex
// order. The coordinator re-derives the vertex of each entry by enumerating
// the same partition, so only the degree values travel.
func (s *Server) runShardDegrees(ctx context.Context) (*wire.ShardDegreesResult, error) {
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	out := &wire.ShardDegreesResult{Version: p.version, Degrees: make([]int64, 0, s.ownedCount)}
	sc, idx := s.shardCount(), s.cfg.ShardIndex
	for v := int32(0); v < s.cfg.Vertices; v++ {
		if v&(shardOpCheckEvery-1) == 0 {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		if cluster.Owner(v, sc) == idx {
			out.Degrees = append(out.Degrees, int64(p.g.Degree(v)))
		}
	}
	return out, nil
}

// runShardWCC answers the shard's local connected-component labels, served
// from the same published WCC labels as client component queries (and
// advanced incrementally, like them). Labels are canonical
// min-member form, which is what lets the coordinator's union-find merge
// reproduce single-process labels byte-identically. The result aliases the
// bundle, which the request pins until it is encoded.
func (s *Server) runShardWCC(ctx context.Context) (*wire.ShardWCCResult, error) {
	p, err := s.read(ctx, kernWCC)
	if err != nil {
		return nil, err
	}
	return &wire.ShardWCCResult{Version: p.version, Labels: p.cc.Label}, nil
}

// runShardPRStep runs one PageRank superstep: push each owned vertex's
// rank/degree share along its out-arcs and return the dense contribution
// vector. The coordinator owns the rank vector, the damping, and the
// dangling redistribution; the shard does only the adjacency scan it alone
// can do.
func (s *Server) runShardPRStep(ctx context.Context, rank []float64) (*wire.ShardPRStepResult, error) {
	if int32(len(rank)) != s.cfg.Vertices {
		return nil, badRequest("shard.prstep: rank vector has %d entries, want %d", len(rank), s.cfg.Vertices)
	}
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	contrib := make([]float64, s.cfg.Vertices)
	sc, idx := s.shardCount(), s.cfg.ShardIndex
	for u := int32(0); u < s.cfg.Vertices; u++ {
		if u&(shardOpCheckEvery-1) == 0 {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		if cluster.Owner(u, sc) != idx {
			continue
		}
		du := p.g.Degree(u)
		if du == 0 {
			continue
		}
		w := rank[u] / float64(du)
		for _, nb := range p.g.Neighbors(u) {
			contrib[nb] += w
		}
	}
	return &wire.ShardPRStepResult{Version: p.version, Contrib: contrib}, nil
}

// runShardAdj answers the complete adjacency lists of owned vertices — the
// frontier exchange behind distributed k-hop/BFS and jaccard replay.
// Requesting a non-owned vertex is a request error: only the owner holds
// the complete list, and silently answering a partial one would corrupt
// the coordinator's traversal (the front end has checked that they are in
// range). The answer is built flat in the request's scratch (the one-shard
// case of the coordinator's exchange table) and lives until it is encoded.
func (s *Server) runShardAdj(ctx context.Context, vertices []int32) (*wire.ShardAdjResult, error) {
	for _, v := range vertices {
		if !s.ownsVertex(v) {
			return nil, badRequest("shard.adj: shard %d does not own vertex %d", s.cfg.ShardIndex, v)
		}
	}
	p, err := s.read(ctx, partGraph)
	if err != nil {
		return nil, err
	}
	out := &traceFrom(ctx).scr.AdjFor(1)[0].ShardAdjResult
	out.Version = p.version
	for i, v := range vertices {
		if i&(shardOpCheckEvery-1) == 0 {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		out.AppendList(p.g.Neighbors(v))
	}
	return out, nil
}
