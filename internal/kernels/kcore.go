package kernels

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// KCoreResult holds the core decomposition: Core[v] is the largest k such
// that v belongs to the k-core (the maximal subgraph where every vertex
// has degree >= k). Core numbers are the classic "compute a new property
// for each vertex" analytic (Fig. 1's vertex-property output class) and a
// standard seed-selection criterion for the canonical flow.
type KCoreResult struct {
	Core    []int32
	MaxCore int32
}

// KCore computes core numbers with the linear-time bucket peeling
// algorithm (Batagelj–Zaveršnik): repeatedly remove the minimum-degree
// vertex, recording the peel level.
func KCore(g *graph.Graph) *KCoreResult {
	n := g.NumVertices()
	res := &KCoreResult{Core: make([]int32, n)}
	if n == 0 {
		return res
	}
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := int32(0); v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	binStart := make([]int32, maxDeg+2)
	for v := int32(0); v < n; v++ {
		binStart[deg[v]+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int32, n)  // vertex -> index in vert
	vert := make([]int32, n) // peeling order array
	cursor := make([]int32, maxDeg+1)
	copy(cursor, binStart[:maxDeg+1])
	for v := int32(0); v < n; v++ {
		p := cursor[deg[v]]
		cursor[deg[v]]++
		pos[v] = p
		vert[p] = v
	}
	// binStart[d] = first index of bucket d during peeling.
	bin := make([]int32, maxDeg+1)
	copy(bin, binStart[:maxDeg+1])

	for i := int32(0); i < n; i++ {
		v := vert[i]
		res.Core[v] = deg[v]
		if deg[v] > res.MaxCore {
			res.MaxCore = deg[v]
		}
		for _, w := range g.Neighbors(v) {
			if deg[w] > deg[v] {
				// Move w to the front of its bucket, then shrink its degree.
				dw := deg[w]
				pw := pos[w]
				pf := bin[dw]
				first := vert[pf]
				if first != w {
					vert[pf], vert[pw] = w, first
					pos[w], pos[first] = pf, pw
				}
				bin[dw]++
				deg[w]--
			}
		}
	}
	return res
}

// ValidateKCore checks the defining property on the decomposition: within
// the subgraph induced by {v : Core[v] >= k}, every vertex has degree >= k,
// for every realized k; and no vertex could sit in a higher core (its core
// number equals its degree within its own core's subgraph, peeled).
func ValidateKCore(g *graph.Graph, res *KCoreResult) bool {
	n := g.NumVertices()
	for k := int32(1); k <= res.MaxCore; k++ {
		for v := int32(0); v < n; v++ {
			if res.Core[v] < k {
				continue
			}
			count := int32(0)
			for _, w := range g.Neighbors(v) {
				if res.Core[w] >= k {
					count++
				}
			}
			if count < k {
				return false
			}
		}
	}
	return true
}

// DegeneracyOrder returns vertices in peeling order (non-decreasing core
// number); the reverse is the degeneracy ordering used by clique and
// triangle algorithms.
func DegeneracyOrder(g *graph.Graph) []int32 {
	res := KCore(g)
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(res.Core[a], res.Core[b]), cmp.Compare(a, b))
	})
	return order
}
