package kernels

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Triangle is one triangle with vertices in increasing order.
type Triangle struct{ A, B, C int32 }

// GlobalTriangleCount counts triangles in an undirected graph by
// mark-and-probe over degree-ordered forward lists: each triangle is
// counted exactly once at its lowest-rank vertex v, as the x of F(w) that
// is also in F(v) for a w in F(v). A worker marks F(v) in an n-bit mark of
// its own, probes it with every F(w), then clears the words it set, so
// each probe is a bit test into an array that stays in cache, not a step
// of a sorted merge. Parallel arcs count once and self-loops not at all.
// Both the forward-list construction and the counting fan out through
// internal/par; the integer sum is worker-count independent.
func GlobalTriangleCount(g *graph.Graph) int64 {
	n := g.NumVertices()
	// rank orders vertices by (degree, id) so high-degree hubs come last;
	// probing only "forward" neighbors bounds work by arboricity.
	rank := degreeRank(g)
	// forward(v) = distinct neighbors with higher rank, sorted by id, as
	// one flat offsets+targets pair: count, prefix sum, fill. Rows are
	// sorted, so a parallel arc's repeats follow its first copy.
	offsets := make([]int64, n+1)
	par.For(int(n), par.Opt{Name: "tc.forward"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			prev := int32(-1)
			for _, w := range g.Neighbors(v) {
				if w != prev && rank[w] > rank[v] {
					offsets[v+1]++
				}
				prev = w
			}
		}
	})
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, offsets[n])
	par.For(int(n), par.Opt{Name: "tc.forward"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			p, prev := offsets[v], int32(-1)
			for _, w := range g.Neighbors(v) {
				if w != prev && rank[w] > rank[v] {
					targets[p] = w
					p++
				}
				prev = w
			}
		}
	})
	opt := par.Opt{Name: "tc.count"}
	marks := make([][]uint64, opt.WorkerCount())
	var total atomic.Int64
	par.ForW(int(n), opt, func(wk, lo, hi int) {
		mark := marks[wk]
		if mark == nil {
			mark = make([]uint64, (n+63)/64)
			marks[wk] = mark
		}
		var local int64
		for v := int32(lo); v < int32(hi); v++ {
			fv := targets[offsets[v]:offsets[v+1]]
			for _, x := range fv {
				mark[x>>6] |= 1 << (uint(x) & 63)
			}
			for _, w := range fv {
				for _, x := range targets[offsets[w]:offsets[w+1]] {
					local += int64(mark[x>>6] >> (uint(x) & 63) & 1)
				}
			}
			// Only F(v)'s bits are set, so zeroing their words clears all.
			for _, x := range fv {
				mark[x>>6] = 0
			}
		}
		total.Add(local)
	})
	return total.Load()
}

// TriangleList enumerates all triangles (the Fig. 1 "TL" kernel, an
// O(|V|^k) output class). Each triangle appears once with A<B<C.
func TriangleList(g *graph.Graph) []Triangle {
	n := g.NumVertices()
	var out []Triangle
	for v := int32(0); v < n; v++ {
		nv := g.Neighbors(v)
		// distinct forward neighbors by ID only — guarantees A<B<C ordering
		// and lists a triangle with a parallel arc once.
		var fv []int32
		for _, w := range nv {
			if w > v && (len(fv) == 0 || w != fv[len(fv)-1]) {
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
