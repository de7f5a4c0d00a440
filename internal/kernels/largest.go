package kernels

import (
	"repro/internal/graph"
	"repro/internal/scratch"
)

// ScoredVertex is a vertex paired with a numeric score, used by top-k
// searches (the Fig. 1 "Search for Largest" kernel and the canonical flow's
// seed-selection stage).
type ScoredVertex struct {
	V     int32
	Score float64
}

// TopKByScore returns the k highest-scoring vertices in descending order
// using a size-k min-heap (single pass, O(n log k)). The heap is
// container/heap's algorithm written out over the result slice — same sift
// order, so the same answer on ties — without boxing every element.
func TopKByScore(scores []float64, k int) []ScoredVertex {
	if k <= 0 {
		return nil
	}
	h := make([]ScoredVertex, 0, min(k, len(scores)))
	// down sifts h[i] toward the leaves of the heap h[:n].
	down := func(i, n int) {
		for {
			j := 2*i + 1
			if j >= n {
				return
			}
			if j+1 < n && h[j+1].Score < h[j].Score {
				j++
			}
			if !(h[j].Score < h[i].Score) {
				return
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	for v, s := range scores {
		if len(h) < k {
			h = append(h, ScoredVertex{V: int32(v), Score: s})
			for j := len(h) - 1; j > 0 && h[j].Score < h[(j-1)/2].Score; j = (j - 1) / 2 {
				h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			}
		} else if s > h[0].Score {
			h[0] = ScoredVertex{V: int32(v), Score: s}
			down(0, len(h))
		}
	}
	// Popping the minimum to the end of a shrinking heap leaves h descending.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		down(0, n)
	}
	return h
}

// TopKByDegree returns the k highest-degree vertices in descending order.
func TopKByDegree(g *graph.Graph, k int) []ScoredVertex {
	scores := make([]float64, g.NumVertices())
	for v := int32(0); v < g.NumVertices(); v++ {
		scores[v] = float64(g.Degree(v))
	}
	return TopKByScore(scores, k)
}

// LargestComponent returns the vertices of the largest weakly connected
// component (a common "search for largest" instance: Graph Challenge's
// largest-component extraction).
func LargestComponent(g *graph.Graph) []int32 {
	cc := WCC(g)
	sizes := scratch.NewSPA[int64](len(cc.Label))
	for _, l := range cc.Label {
		sizes.Add(l, 1)
	}
	best, bestSize := int32(-1), int64(-1)
	for _, l := range sizes.Touched() {
		if s := sizes.Value(l); s > bestSize || (s == bestSize && l < best) {
			best, bestSize = l, s
		}
	}
	out := make([]int32, 0, bestSize)
	for v, l := range cc.Label {
		if l == best {
			out = append(out, int32(v))
		}
	}
	return out
}
