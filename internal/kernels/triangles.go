package kernels

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Triangle is one triangle with vertices in increasing order.
type Triangle struct{ A, B, C int32 }

// GlobalTriangleCount counts triangles in an undirected graph using the
// degree-ordered merge-intersection algorithm (the MiniTri / Graph Challenge
// GTC kernel): each triangle is counted exactly once at its lowest-rank
// vertex. Both the forward-list construction and the counting fan out
// through internal/par; the integer sum is worker-count independent.
func GlobalTriangleCount(g *graph.Graph) int64 {
	n := g.NumVertices()
	// rank orders vertices by (degree, id) so high-degree hubs come last;
	// intersecting only "forward" neighbors bounds work by arboricity.
	rank := degreeRank(g)
	// forward(v) = neighbors with higher rank, sorted by id, as one flat
	// offsets+targets pair: count, prefix sum, fill.
	offsets := make([]int64, n+1)
	par.For(int(n), par.Opt{Name: "tc.forward"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			for _, w := range g.Neighbors(v) {
				if rank[w] > rank[v] {
					offsets[v+1]++
				}
			}
		}
	})
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, offsets[n])
	par.For(int(n), par.Opt{Name: "tc.forward"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			p := offsets[v]
			for _, w := range g.Neighbors(v) {
				if rank[w] > rank[v] {
					targets[p] = w
					p++
				}
			}
		}
	})
	forward := func(v int32) []int32 { return targets[offsets[v]:offsets[v+1]] }
	return par.Reduce(int(n), par.Opt{Name: "tc.count"},
		func(lo, hi int) int64 {
			var local int64
			for v := int32(lo); v < int32(hi); v++ {
				fv := forward(v)
				for _, w := range fv {
					local += int64(intersectCount(fv, forward(w)))
				}
			}
			return local
		},
		func(a, b int64) int64 { return a + b })
}

// TriangleList enumerates all triangles (the Fig. 1 "TL" kernel, an
// O(|V|^k) output class). Each triangle appears once with A<B<C.
func TriangleList(g *graph.Graph) []Triangle {
	n := g.NumVertices()
	var out []Triangle
	for v := int32(0); v < n; v++ {
		nv := g.Neighbors(v)
		// forward neighbors by ID only — guarantees A<B<C ordering.
		var fv []int32
		for _, w := range nv {
			if w > v {
				fv = append(fv, w)
			}
		}
		for i, w := range fv {
			fw := g.Neighbors(w)
			// intersect fv[i+1:] with fw∩(>w)
			a, b := fv[i+1:], fw
			ai, bi := 0, 0
			for ai < len(a) && bi < len(b) {
				switch {
				case a[ai] < b[bi]:
					ai++
				case a[ai] > b[bi]:
					bi++
				default:
					if a[ai] > w {
						out = append(out, Triangle{A: v, B: w, C: a[ai]})
					}
					ai++
					bi++
				}
			}
		}
	}
	return out
}

// PerVertexTriangles returns each vertex's triangle participation count
// (every triangle contributes 1 to each of its three corners).
func PerVertexTriangles(g *graph.Graph) []int64 {
	n := g.NumVertices()
	counts := make([]int64, n)
	for _, t := range TriangleList(g) {
		counts[t.A]++
		counts[t.B]++
		counts[t.C]++
	}
	return counts
}

// ClusteringCoefficients computes the local clustering coefficient of every
// vertex: triangles(v) / (deg(v) choose 2). Vertices of degree < 2 get 0.
func ClusteringCoefficients(g *graph.Graph) []float64 {
	n := g.NumVertices()
	tri := PerVertexTriangles(g)
	cc := make([]float64, n)
	for v := int32(0); v < n; v++ {
		d := int64(g.Degree(v))
		if d < 2 {
			continue
		}
		cc[v] = float64(tri[v]) / float64(d*(d-1)/2)
	}
	return cc
}

// GlobalClusteringCoefficient returns 3*triangles / open+closed wedges
// (transitivity).
func GlobalClusteringCoefficient(g *graph.Graph) float64 {
	tris := GlobalTriangleCount(g)
	var wedges int64
	for v := int32(0); v < g.NumVertices(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(tris) / float64(wedges)
}

// degreeRank returns a ranking where rank[v] < rank[w] iff
// (deg(v), v) < (deg(w), w): a counting sort by degree, stable in id.
func degreeRank(g *graph.Graph) []int32 {
	n := g.NumVertices()
	maxDeg := int32(0)
	for v := int32(0); v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(v))
	}
	// next[d] is the rank the next vertex of degree d takes.
	next := make([]int32, maxDeg+2)
	for v := int32(0); v < n; v++ {
		next[g.Degree(v)+1]++
	}
	for d := int32(0); d <= maxDeg; d++ {
		next[d+1] += next[d]
	}
	rank := make([]int32, n)
	for v := int32(0); v < n; v++ {
		rank[v] = next[g.Degree(v)]
		next[g.Degree(v)]++
	}
	return rank
}

func sortInt32s(s []int32, less func(a, b int32) bool) {
	// simple introspective-free quicksort via sort.Slice equivalent without
	// allocation of interface closures per element
	quicksortInt32(s, less)
}

func quicksortInt32(s []int32, less func(a, b int32) bool) {
	for len(s) > 12 {
		p := partitionInt32(s, less)
		if p < len(s)-p {
			quicksortInt32(s[:p], less)
			s = s[p+1:]
		} else {
			quicksortInt32(s[p+1:], less)
			s = s[:p]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func partitionInt32(s []int32, less func(a, b int32) bool) int {
	mid := len(s) / 2
	if less(s[mid], s[0]) {
		s[mid], s[0] = s[0], s[mid]
	}
	if less(s[len(s)-1], s[mid]) {
		s[len(s)-1], s[mid] = s[mid], s[len(s)-1]
		if less(s[mid], s[0]) {
			s[mid], s[0] = s[0], s[mid]
		}
	}
	pivot := s[mid]
	s[mid], s[len(s)-2] = s[len(s)-2], s[mid]
	i, j := 0, len(s)-2
	for {
		for i++; less(s[i], pivot); i++ {
		}
		for j--; less(pivot, s[j]); j-- {
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	s[i], s[len(s)-2] = s[len(s)-2], s[i]
	return i
}

// intersectCount counts common elements of two sorted slices.
func intersectCount(a, b []int32) int {
	count, ai, bi := 0, 0, 0
	for ai < len(a) && bi < len(b) {
		switch {
		case a[ai] < b[bi]:
			ai++
		case a[ai] > b[bi]:
			bi++
		default:
			count++
			ai++
			bi++
		}
	}
	return count
}
