package kernels

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// WCCParallel computes weakly connected components with a lock-free
// Liu–Tarjan/Afforest-style algorithm: parallel edge-hooking onto a shared
// atomic parent array with path compression, followed by a final
// compression sweep. It produces the same canonical min-member labels as
// WCC — hooks always direct the larger root at the smaller, so the final
// labels are component minima and the result is deterministic for any
// worker count. It exists both as a performance variant and as a third
// independent implementation for cross-checking. It is WCCCtx under
// context.Background().
func WCCParallel(g *graph.Graph) *CCResult {
	cc, _ := WCCCtx(context.Background(), g)
	return cc
}

// WCCCtx is WCCParallel with cooperative cancellation at chunk boundaries;
// a cancelled run returns a nil result. The labels are the parent array
// itself: the final sweep points every vertex straight at its root, so the
// kernel allocates its answer and nothing else.
func WCCCtx(ctx context.Context, g *graph.Graph) (*CCResult, error) {
	ctx, sp := kernelSpan(ctx, "kernel.wcc")
	defer sp.End()
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[v])
			if p == v {
				return v
			}
			gp := atomic.LoadInt32(&parent[p])
			if gp == p {
				return p
			}
			// Path halving; benign race — any stored value is a valid
			// ancestor.
			atomic.CompareAndSwapInt32(&parent[v], p, gp)
			v = gp
		}
	}

	// Hook every arc: link the larger root under the smaller, so labels
	// converge to component minima without a canonicalization pass.
	if err := par.ForCtx(ctx, int(n), par.Opt{Name: "wcc.hook"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			for _, u := range g.Neighbors(v) {
				for {
					ra, rb := find(v), find(u)
					if ra == rb {
						break
					}
					if ra > rb {
						ra, rb = rb, ra
					}
					if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
						break
					}
				}
			}
		}
	}); err != nil {
		return nil, err
	}

	// Final sweep: full compression, in place. Roots no longer move, so a
	// find racing with the store reads either an ancestor or the root.
	numComp, err := par.ReduceCtx(ctx, int(n), par.Opt{Name: "wcc.sweep"},
		func(lo, hi int) int32 {
			var local int32
			for v := int32(lo); v < int32(hi); v++ {
				r := find(v)
				atomic.StoreInt32(&parent[v], r)
				if r == v {
					local++
				}
			}
			return local
		},
		func(a, b int32) int32 { return a + b })
	if err != nil {
		return nil, err
	}
	return &CCResult{Label: parent, NumComponents: numComp}, nil
}
