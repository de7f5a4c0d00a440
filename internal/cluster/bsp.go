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
func (c *Coordinator) gatherDegrees(ctx context.Context) (*State, error) {
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
	st := &State{vec: vec, Scores: make([]float64, c.cfg.Vertices)}
	cursor := make([]int, shards)
	for v := int32(0); v < c.cfg.Vertices; v++ {
		o := Owner(v, shards)
		if cursor[o] >= len(parts[o].Degrees) {
			return nil, badRequestf("shard %d returned %d degrees, fewer than it owns", o, len(parts[o].Degrees))
		}
		st.Scores[v] = float64(parts[o].Degrees[cursor[o]])
		cursor[o]++
	}
	return st, nil
}

// gatherWCC runs the one-superstep distributed WCC: every shard reports
// its local canonical component labels (each already collapses all paths
// that stay inside the shard's owned adjacency), the coordinator unions
// v with its shard-local label for every shard, and the merged forest is
// relabeled to canonical min-member form. Because min-member labels are a
// pure function of the component partition — not of the merge order — the
// result is byte-identical to single-process kernels.WCC.
func (c *Coordinator) gatherWCC(ctx context.Context) (*State, error) {
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
	// union-find root is the component's minimum member. It is stored at
	// labels[root] — final already when root < v, and kept when the scan
	// reaches a root above v — and sizes are tallied by label.
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = -1
	}
	sizes := make([]int64, n)
	var num int32
	for v := int32(0); v < n; v++ {
		root := uf.Find(v)
		if labels[root] < 0 {
			labels[root] = v
			num++
		}
		labels[v] = labels[root]
		sizes[labels[v]]++
	}
	return &State{vec: vec, Labels: labels, Sizes: sizes, Components: num}, nil
}

// runPageRank drives distributed power iteration: the coordinator owns the
// rank vector, computes the dangling redistribution and damping, and each
// superstep pushes the current vector to every shard, which returns the
// contribution sums its owned out-arcs produce. The update rule, the L1
// convergence test, and the iteration accounting mirror kernels.PageRank
// exactly; only the accumulation order of contributions differs (shard
// order instead of CSR in-neighbor order), which is why the acceptance
// contract for PageRank is "within tolerance", not byte-identity.
func (c *Coordinator) runPageRank(ctx context.Context) (*State, error) {
	deg, stale, err := c.cached(ctx, kernDeg)
	if err != nil {
		return nil, err
	}
	if stale {
		// Supersteps need every shard live; a stale degree vector means at
		// least one is not.
		return nil, wire.Errorf(http.StatusServiceUnavailable, "cluster: cannot run supersteps with a shard unreachable")
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
			if deg.Scores[v] == 0 {
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
	return &State{vec: vec, Scores: rank, Iterations: iters}, nil
}

// Read returns the whole-graph state op's answers read — component's WCC,
// pagerank's ranks, topdegree's degrees — at the current version vector.
func (c *Coordinator) Read(ctx context.Context, op byte) (*State, error) {
	k := kernDeg
	switch op {
	case wire.OpComponent:
		k = kernWCC
	case wire.OpPageRank:
		k = kernPR
	}
	st, _, err := c.cached(ctx, k)
	return st, err
}

// cached is the one cache rule of the whole-graph kernels: probe the
// version vector; with a shard unreachable serve the last state, reporting
// it stale (stale beats unavailable for whole-graph summaries); serve a
// state built at the current vector; else rebuild — once more if the
// gather met version skew — and store it. The cache mutex covers only the
// check and the store, never a shard exchange: concurrent misses may
// rebuild twice, which is wasted work but never wrong.
func (c *Coordinator) cached(ctx context.Context, k kernel) (*State, bool, error) {
	vec, verr := c.versions(ctx)
	c.cacheMu.Lock()
	st := c.cache[k]
	c.cacheMu.Unlock()
	switch {
	case verr != nil && st != nil:
		c.m.staleServes.Inc()
		return st, true, nil
	case verr != nil:
		return nil, false, verr
	case st != nil && st.vec.equal(vec):
		c.m.cacheHit(kernelNames[k])
		return st, false, nil
	}
	build := [numKernels]func(context.Context) (*State, error){c.gatherDegrees, c.gatherWCC, c.runPageRank}[k]
	st, err := build(ctx)
	if errors.Is(err, errSkew) {
		c.m.skewRetries.Inc()
		st, err = build(ctx)
	}
	if err != nil {
		return nil, false, err
	}
	c.m.rebuild(kernelNames[k])
	c.cacheMu.Lock()
	c.cache[k] = st
	c.cacheMu.Unlock()
	return st, false, nil
}
