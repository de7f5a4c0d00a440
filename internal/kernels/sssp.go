package kernels

import (
	"math"

	"repro/internal/graph"
)

// Inf is the distance assigned to unreachable vertices.
var Inf = math.Inf(1)

// SSSPResult holds single-source shortest-path distances and parents.
type SSSPResult struct {
	Source int32
	Dist   []float64
	Parent []int32
}

type pqItem struct {
	v    int32
	dist float64
}

// Dijkstra computes shortest paths from src using a binary heap with lazy
// deletion. Edge weights must be nonnegative; unweighted graphs use weight 1
// per edge. The heap is container/heap's algorithm written out over
// []pqItem — same sift sequence, so the same pop order and the same Parent
// on ties — without boxing every relaxation.
func Dijkstra(g *graph.Graph, src int32) *SSSPResult {
	n := g.NumVertices()
	res := &SSSPResult{Source: src, Dist: make([]float64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = Unreached
	}
	res.Dist[src] = 0
	res.Parent[src] = src
	pq := []pqItem{{v: src, dist: 0}}
	for len(pq) > 0 {
		it := pq[0]
		last := len(pq) - 1
		pq[0], pq = pq[last], pq[:last]
		for i := 0; ; {
			j := 2*i + 1
			if j >= last {
				break
			}
			if j+1 < last && pq[j+1].dist < pq[j].dist {
				j++
			}
			if !(pq[j].dist < pq[i].dist) {
				break
			}
			pq[i], pq[j] = pq[j], pq[i]
			i = j
		}
		if it.dist > res.Dist[it.v] {
			continue // stale entry
		}
		ns := g.Neighbors(it.v)
		ws := g.NeighborWeights(it.v)
		for i, w := range ns {
			ew := 1.0
			if ws != nil {
				ew = float64(ws[i])
			}
			if nd := it.dist + ew; nd < res.Dist[w] {
				res.Dist[w] = nd
				res.Parent[w] = it.v
				pq = append(pq, pqItem{v: w, dist: nd})
				for j := len(pq) - 1; j > 0 && pq[j].dist < pq[(j-1)/2].dist; j = (j - 1) / 2 {
					pq[j], pq[(j-1)/2] = pq[(j-1)/2], pq[j]
				}
			}
		}
	}
	return res
}

// BellmanFord computes shortest paths allowing negative weights. It returns
// the result and false if a negative cycle reachable from src exists.
func BellmanFord(g *graph.Graph, src int32) (*SSSPResult, bool) {
	n := g.NumVertices()
	res := &SSSPResult{Source: src, Dist: make([]float64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = Unreached
	}
	res.Dist[src] = 0
	res.Parent[src] = src
	for iter := int32(0); iter < n; iter++ {
		changed := false
		for v := int32(0); v < n; v++ {
			dv := res.Dist[v]
			if math.IsInf(dv, 1) {
				continue
			}
			ns := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			for i, w := range ns {
				ew := 1.0
				if ws != nil {
					ew = float64(ws[i])
				}
				if nd := dv + ew; nd < res.Dist[w] {
					res.Dist[w] = nd
					res.Parent[w] = v
					changed = true
				}
			}
		}
		if !changed {
			return res, true
		}
	}
	return res, false
}

// DeltaStepping computes shortest paths with the bucketed delta-stepping
// algorithm (the SSSP algorithm used by the Graph Challenge and GAP
// benchmarks referenced in Fig. 1). delta is the bucket width; a value near
// the mean edge weight works well. Weights must be nonnegative.
func DeltaStepping(g *graph.Graph, src int32, delta float64) *SSSPResult {
	if delta <= 0 {
		delta = 1
	}
	n := g.NumVertices()
	res := &SSSPResult{Source: src, Dist: make([]float64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = Unreached
	}
	res.Dist[src] = 0
	res.Parent[src] = src

	buckets := map[int][]int32{0: {src}}
	maxBucket := 0
	// stamp[v] = bi+1 when v has already been settled during bucket bi,
	// so duplicate queue entries are skipped.
	stamp := make([]int, n)

	relax := func(w int32, nd float64, parent int32) {
		if nd < res.Dist[w] {
			res.Dist[w] = nd
			res.Parent[w] = parent
			b := int(nd / delta)
			buckets[b] = append(buckets[b], w)
			if b > maxBucket {
				maxBucket = b
			}
			if b == int(res.Dist[w]/delta) && stamp[w] == b+1 {
				// Re-opened within its own bucket: allow re-settling so the
				// improved distance propagates.
				stamp[w] = 0
			}
		}
	}

	for bi := 0; bi <= maxBucket; bi++ {
		// Process light edges until the bucket stabilizes.
		var settled []int32
		for len(buckets[bi]) > 0 {
			cur := buckets[bi]
			buckets[bi] = nil
			for _, v := range cur {
				if int(res.Dist[v]/delta) != bi || stamp[v] == bi+1 {
					continue // stale entry or already settled at this dist
				}
				stamp[v] = bi + 1
				settled = append(settled, v)
				dv := res.Dist[v]
				ns := g.Neighbors(v)
				ws := g.NeighborWeights(v)
				for i, w := range ns {
					ew := 1.0
					if ws != nil {
						ew = float64(ws[i])
					}
					if ew <= delta {
						relax(w, dv+ew, v)
					}
				}
			}
		}
		// Then relax heavy edges from everything settled in this bucket.
		for _, v := range settled {
			dv := res.Dist[v]
			ns := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			for i, w := range ns {
				ew := 1.0
				if ws != nil {
					ew = float64(ws[i])
				}
				if ew > delta {
					relax(w, dv+ew, v)
				}
			}
		}
	}
	return res
}

// ValidateSSSP checks the shortest-path triangle inequality over all arcs:
// dist[w] <= dist[v] + weight(v,w), and dist[parent]+w == dist[v] for tree
// edges (within epsilon). Used by tests and the harness.
func ValidateSSSP(g *graph.Graph, res *SSSPResult) bool {
	const eps = 1e-9
	for v := int32(0); v < g.NumVertices(); v++ {
		dv := res.Dist[v]
		if math.IsInf(dv, 1) {
			continue
		}
		ns := g.Neighbors(v)
		ws := g.NeighborWeights(v)
		for i, w := range ns {
			ew := 1.0
			if ws != nil {
				ew = float64(ws[i])
			}
			if res.Dist[w] > dv+ew+eps {
				return false
			}
		}
	}
	return true
}
