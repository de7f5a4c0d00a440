package cluster

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// BSP drivers: each global kernel runs as coordinator-paced supersteps.
// The coordinator owns the dense global state (rank vectors, labels,
// frontiers); shards contribute only what their owned adjacency can
// produce; every round is a barrier (fanOut returns when all shards have
// answered). Per-shard partial results are always combined in ascending
// shard order so floating-point accumulation order is deterministic
// across runs.
//
// Consistency: every shard response carries its snapshot version. A gather
// whose responses disagree with the expected vector fails with errSkew and
// is retried once — enough to absorb an ingest batch landing mid-gather.
// Kernels driven against heavily-churning shards can keep failing; the
// documented operating mode is to run global kernels against quiescent or
// slowly-churning clusters (see docs/CLUSTER.md).

// gatherDegrees fans shard.degrees to every shard and reassembles the
// global degree vector by enumerating the partition the same way each
// shard did (ascending owned vertices).
func (c *Coordinator) gatherDegrees(ctx context.Context) (*degState, error) {
	shards := len(c.shards)
	to := wireTimeout(ctx)
	parts := make([]*wire.ShardDegreesResult, shards)
	err := c.fanOut(func(sc *shardConn) error {
		return sc.call(func(cl *wire.Client) error {
			res, err := cl.ShardDegrees(to)
			if err != nil {
				return err
			}
			parts[sc.index] = res
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	vec := make(versionVec, shards)
	for i, p := range parts {
		vec[i] = p.Version
	}
	st := &degState{vec: vec, scores: make([]float64, c.cfg.Vertices)}
	cursor := make([]int, shards)
	for v := int32(0); v < c.cfg.Vertices; v++ {
		o := Owner(v, shards)
		if cursor[o] >= len(parts[o].Degrees) {
			return nil, badRequestf("shard %d returned %d degrees, fewer than it owns", o, len(parts[o].Degrees))
		}
		st.scores[v] = float64(parts[o].Degrees[cursor[o]])
		cursor[o]++
	}
	return st, nil
}

// degrees returns the global degree vector for the current version vector,
// serving the cache when valid, rebuilding on miss, and falling back to the
// stale cache when a shard is unreachable (degraded mode). The bool reports
// whether the answer is stale. The cache mutex covers only the check and
// the store, never a shard exchange — concurrent misses may rebuild twice,
// which is wasted work but never wrong (states are immutable once built).
func (c *Coordinator) degrees(ctx context.Context) (*degState, bool, error) {
	vec, verr := c.versions(ctx)
	c.cacheMu.Lock()
	cached := c.deg
	c.cacheMu.Unlock()
	if verr != nil {
		if cached != nil {
			c.m.staleServes.Inc()
			return cached, true, nil
		}
		return nil, false, verr
	}
	if cached != nil && cached.vec.equal(vec) {
		c.m.cacheHit("degrees")
		return cached, false, nil
	}
	st, err := c.gatherDegrees(ctx)
	if err != nil {
		return nil, false, err
	}
	c.m.rebuild("degrees")
	c.cacheMu.Lock()
	c.deg = st
	c.cacheMu.Unlock()
	return st, false, nil
}

// gatherWCC runs the one-superstep distributed WCC: every shard reports
// its local canonical component labels (each already collapses all paths
// that stay inside the shard's owned adjacency), the coordinator unions
// v with its shard-local label for every shard, and the merged forest is
// relabeled to canonical min-member form. Because min-member labels are a
// pure function of the component partition — not of the merge order — the
// result is byte-identical to single-process kernels.WCC.
func (c *Coordinator) gatherWCC(ctx context.Context) (*wccState, error) {
	shards := len(c.shards)
	to := wireTimeout(ctx)
	parts := make([]*wire.ShardWCCResult, shards)
	start := time.Now()
	err := c.fanOut(func(sc *shardConn) error {
		return sc.call(func(cl *wire.Client) error {
			res, err := cl.ShardWCC(to)
			if err != nil {
				return err
			}
			if int32(len(res.Labels)) != c.cfg.Vertices {
				return badRequestf("shard %d returned %d labels, want %d", sc.index, len(res.Labels), c.cfg.Vertices)
			}
			parts[sc.index] = res
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	c.m.superstep("wcc", start)
	vec := make(versionVec, shards)
	for i, p := range parts {
		vec[i] = p.Version
	}

	n := c.cfg.Vertices
	uf := kernels.NewUnionFind(n)
	for _, p := range parts {
		for v := int32(0); v < n; v++ {
			uf.Union(v, p.Labels[v])
		}
	}
	// Min-member relabel: scanning ascending, the first vertex seen for each
	// union-find root IS the component's minimum member.
	labels := make([]int32, n)
	canon := make(map[int32]int32)
	sizes := make(map[int32]int64)
	var num int32
	for v := int32(0); v < n; v++ {
		root := uf.Find(v)
		lab, ok := canon[root]
		if !ok {
			lab = v
			canon[root] = v
			num++
		}
		labels[v] = lab
		sizes[lab]++
	}
	return &wccState{vec: vec, labels: labels, sizes: sizes, num: num}, nil
}

// components returns the merged WCC state for the current version vector
// with the same cache/stale policy as degrees.
func (c *Coordinator) components(ctx context.Context) (*wccState, bool, error) {
	vec, verr := c.versions(ctx)
	c.cacheMu.Lock()
	cached := c.wcc
	c.cacheMu.Unlock()
	if verr != nil {
		if cached != nil {
			c.m.staleServes.Inc()
			return cached, true, nil
		}
		return nil, false, verr
	}
	if cached != nil && cached.vec.equal(vec) {
		c.m.cacheHit("wcc")
		return cached, false, nil
	}
	st, err := c.gatherWCC(ctx)
	if err != nil {
		return nil, false, err
	}
	c.m.rebuild("wcc")
	c.cacheMu.Lock()
	c.wcc = st
	c.cacheMu.Unlock()
	return st, false, nil
}

// runPageRank drives distributed power iteration: the coordinator owns the
// rank vector, computes the dangling redistribution and damping, and each
// superstep pushes the current vector to every shard, which returns the
// contribution sums its owned out-arcs produce. The update rule, the L1
// convergence test, and the iteration accounting mirror kernels.PageRank
// exactly; only the accumulation order of contributions differs (shard
// order instead of CSR in-neighbor order), which is why the acceptance
// contract for PageRank is "within tolerance", not byte-identity.
func (c *Coordinator) runPageRank(ctx context.Context) (*prState, error) {
	deg, stale, err := c.degrees(ctx)
	if err != nil {
		return nil, err
	}
	if stale {
		// Supersteps need every shard live; a stale degree vector means at
		// least one is not.
		return nil, &Error{Code: http.StatusServiceUnavailable, Msg: "cluster: cannot run supersteps with a shard unreachable"}
	}
	vec := deg.vec
	opt := c.cfg.PageRank
	n := int(c.cfg.Vertices)
	shards := len(c.shards)
	to := wireTimeout(ctx)

	rank := make([]float64, n)
	next := make([]float64, n)
	invN := 1.0 / float64(n)
	for i := range rank {
		rank[i] = invN
	}

	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if deg.scores[v] == 0 {
				dangling += rank[v]
			}
		}
		base := (1-opt.Damping)*invN + opt.Damping*dangling*invN

		start := time.Now()
		parts := make([]*wire.ShardPRStepResult, shards)
		err := c.fanOut(func(sc *shardConn) error {
			return sc.call(func(cl *wire.Client) error {
				res, err := cl.ShardPRStep(rank, to)
				if err != nil {
					return err
				}
				if res.Version != vec[sc.index] {
					return errSkew
				}
				parts[sc.index] = res
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		c.m.superstep("pagerank", start)

		for v := 0; v < n; v++ {
			next[v] = 0
		}
		for _, p := range parts {
			for v := 0; v < n; v++ {
				next[v] += p.Contrib[v]
			}
		}
		delta := 0.0
		for v := 0; v < n; v++ {
			next[v] = base + opt.Damping*next[v]
			d := next[v] - rank[v]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, next = next, rank
		if delta < opt.Tolerance {
			iters++
			break
		}
	}
	return &prState{vec: vec, rank: rank, iters: iters}, nil
}

// pagerank returns the converged distributed PageRank for the current
// version vector, with cache, one skew retry, and stale fallback.
func (c *Coordinator) pagerank(ctx context.Context) (*prState, bool, error) {
	vec, verr := c.versions(ctx)
	c.cacheMu.Lock()
	cached := c.pr
	c.cacheMu.Unlock()
	if verr != nil {
		if cached != nil {
			c.m.staleServes.Inc()
			return cached, true, nil
		}
		return nil, false, verr
	}
	if cached != nil && cached.vec.equal(vec) {
		c.m.cacheHit("pagerank")
		return cached, false, nil
	}
	st, err := c.runPageRank(ctx)
	if errors.Is(err, errSkew) {
		c.m.skewRetries.Inc()
		st, err = c.runPageRank(ctx)
	}
	if err != nil {
		return nil, false, err
	}
	c.m.rebuild("pagerank")
	c.cacheMu.Lock()
	c.pr = st
	c.cacheMu.Unlock()
	return st, false, nil
}
