package kernels

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scratch"
)

// LabelPropagationSync runs synchronous (Jacobi-style) label propagation:
// every vertex simultaneously adopts the most frequent label among its
// neighbors plus its own current label (the self-vote damps the two-cycle
// oscillation synchronous updates are prone to), ties broken toward the
// smaller label. Each round is a pure function of the previous round's
// labels, so — unlike the seeded asynchronous LabelPropagation — the result
// is byte-identical for any worker count, which is what the determinism
// suite exercises. Labels are canonicalized to minimum member IDs.
//
// Vote counting scatters into one SPA per worker, reused across every
// chunk and round (allocated lazily the first time a worker pulls work),
// instead of a fresh map per chunk. The changed tally is an integer sum,
// so accumulating it atomically across chunks stays deterministic.
func LabelPropagationSync(g *graph.Graph, maxRounds int) *CommunityResult {
	n := g.NumVertices()
	label := make([]int32, n)
	next := make([]int32, n)
	for v := range label {
		label[v] = int32(v)
	}
	opt := par.Opt{Name: "lp.sync"}
	votes := make([]*scratch.SPA[int32], opt.WorkerCount())
	for round := 0; round < maxRounds; round++ {
		var changed atomic.Int64
		par.ForW(int(n), opt, func(w, lo, hi int) {
			counts := votes[w]
			if counts == nil {
				counts = BorrowVertexCounts(n)
				votes[w] = counts
			}
			c := 0
			for v := int32(lo); v < int32(hi); v++ {
				ns := g.Neighbors(v)
				if len(ns) == 0 {
					next[v] = label[v]
					continue
				}
				counts.Reset()
				counts.Add(label[v], 1) // self-vote
				for _, w := range ns {
					counts.Add(label[w], 1)
				}
				best, bestCount := label[v], counts.Value(label[v])
				for _, l := range counts.Touched() {
					if cnt := counts.Value(l); cnt > bestCount || (cnt == bestCount && l < best) {
						best, bestCount = l, cnt
					}
				}
				next[v] = best
				if best != label[v] {
					c++
				}
			}
			changed.Add(int64(c))
		})
		label, next = next, label
		if changed.Load() == 0 {
			break
		}
	}
	for _, s := range votes {
		if s != nil {
			ReturnVertexCounts(s)
		}
	}
	cc := canonicalize(label)
	return &CommunityResult{
		Label:          cc.Label,
		NumCommunities: cc.NumComponents,
		Modularity:     Modularity(g, cc.Label),
	}
}
