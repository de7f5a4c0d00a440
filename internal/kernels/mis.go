package kernels

import (
	"math/rand"
	"slices"

	"repro/internal/graph"
)

// MISGreedy computes a maximal independent set by scanning vertices in ID
// order, taking any vertex none of whose neighbors is already in the set.
// Deterministic; used as the oracle in tests.
func MISGreedy(g *graph.Graph) []int32 {
	n := g.NumVertices()
	in := make([]bool, n)
	blocked := make([]bool, n)
	var set []int32
	for v := int32(0); v < n; v++ {
		if blocked[v] {
			continue
		}
		in[v] = true
		set = append(set, v)
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	return set
}

// MISLuby computes a maximal independent set with Luby's randomized
// parallel algorithm (the Firehose-referenced MIS kernel of Fig. 1): each
// round every live vertex draws a random priority; local minima join the
// set and knock out their neighborhoods. Expected O(log n) rounds.
func MISLuby(g *graph.Graph, seed int64) []int32 {
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	prio := make([]float64, n)
	var set []int32
	remaining := n
	for remaining > 0 {
		for v := int32(0); v < n; v++ {
			if alive[v] {
				prio[v] = rng.Float64()
			}
		}
		for v := int32(0); v < n; v++ {
			if !alive[v] {
				continue
			}
			isMin := true
			for _, w := range g.Neighbors(v) {
				if alive[w] && w != v && (prio[w] < prio[v] || (prio[w] == prio[v] && w < v)) {
					isMin = false
					break
				}
			}
			if isMin {
				set = append(set, v)
				alive[v] = false
				remaining--
				for _, w := range g.Neighbors(v) {
					if alive[w] {
						alive[w] = false
						remaining--
					}
				}
			}
		}
	}
	slices.Sort(set)
	return set
}

// ValidateMIS checks independence (no two set members adjacent) and
// maximality (every non-member has a member neighbor).
func ValidateMIS(g *graph.Graph, set []int32) bool {
	n := g.NumVertices()
	in := make([]bool, n)
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, w := range g.Neighbors(v) {
			if w != v && in[w] {
				return false
			}
		}
	}
	for v := int32(0); v < n; v++ {
		if in[v] {
			continue
		}
		hasMemberNbr := false
		for _, w := range g.Neighbors(v) {
			if in[w] {
				hasMemberNbr = true
				break
			}
		}
		if !hasMemberNbr && g.Degree(v) >= 0 {
			// Isolated vertices must themselves be in the set.
			return false
		}
	}
	return true
}
