package kernels

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// KCoreParallel computes core numbers with level-synchronous peeling (the
// ParK/Julienne scheme): level k removes every vertex whose residual degree
// is <= k, cascading within the level. Degree decrements are atomic; a
// vertex is claimed for peeling by exactly one worker — the one whose
// decrement moves its degree from k+1 to k (the level's opening scan claims
// those already at k). Core numbers are a confluent fixpoint of peeling, so
// the result equals KCore's for any worker count and any order the rounds'
// vertices are collected in.
//
// A vertex stays on the live list through the non-empty levels up to
// core(v), and core(v) <= deg(v), so the opening scans add up to at most
// n + m steps: the whole kernel is O(n + m) work.
//
// The residual degrees live in res.Core itself. A decrement is a load then
// an add, so workers racing on a vertex in the round that claims it at
// level k can take it below k; the peel of the next round stores k, and
// from then on its value is at most the level, which no decrement touches.
func KCoreParallel(g *graph.Graph) *KCoreResult {
	n := g.NumVertices()
	res := &KCoreResult{Core: make([]int32, n)}
	deg := res.Core
	alive := make([]int32, n)
	for v := int32(0); v < n; v++ {
		deg[v] = g.Degree(v)
		alive[v] = v
	}
	var frontier, next []int32
	var out par.Frontier[int32]
	// peel is one round's chunk body, made once: it sees the level and the
	// round through k and frontier.
	k := int32(0)
	peel := func(found []int32, lo, hi int) []int32 {
		k := k // a register copy: the loop below runs once per arc
		for _, v := range frontier[lo:hi] {
			atomic.StoreInt32(&deg[v], k)
			for _, w := range g.Neighbors(v) {
				// At level k a degree at or below k means w is already
				// claimed; only live degrees are decremented.
				if atomic.LoadInt32(&deg[w]) > k && atomic.AddInt32(&deg[w], -1) == k {
					found = append(found, w)
				}
			}
		}
		return found
	}
	for ; len(alive) > 0; k++ {
		// Split the live list, in place, into this level's first round and
		// the survivors. Whoever is still unclaimed has a degree of at least
		// k, so a smaller one marks a vertex an earlier cascade peeled.
		frontier = frontier[:0]
		kept, minDeg := alive[:0], int32(math.MaxInt32)
		for _, v := range alive {
			switch d := deg[v]; {
			case d > k:
				kept, minDeg = append(kept, v), min(minDeg, d)
			case d == k:
				frontier = append(frontier, v)
			}
		}
		alive = kept
		if len(frontier) == 0 {
			k = minDeg - 1 // the levels below the smallest live degree are empty
			continue
		}
		res.MaxCore = k
		for unclaimed := len(alive); len(frontier) > 0; unclaimed -= len(frontier) {
			if unclaimed == 0 {
				// Every survivor is claimed: this is the last round of the
				// last level and no degree matters any more.
				for _, v := range frontier {
					deg[v] = k
				}
				return res
			}
			// The rounds that peel the dense core are few vertices and most
			// of the arcs: chunk by arc volume, not vertex count.
			arcs := int64(0)
			for _, v := range frontier {
				arcs += int64(g.Degree(v))
			}
			next = out.Collect(next, len(frontier), par.Opt{Name: "kcore.peel", Grain: arcGrain(len(frontier), arcs)}, peel)
			frontier, next = next, frontier
		}
	}
	return res
}
