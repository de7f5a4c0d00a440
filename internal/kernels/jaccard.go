package kernels

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scratch"
)

// JaccardPairScore is one vertex pair and its Jaccard similarity
// |N(u)∩N(v)| / |N(u)∪N(v)|. The paper treats Jaccard as the representative
// NORA-style similarity kernel ("who shared an address with what other
// individuals 2 or more times").
type JaccardPairScore struct {
	U, V  int32
	Inter int32
	Score float64
}

// JaccardPair computes the Jaccard coefficient of a single vertex pair by
// merge-intersecting the sorted neighbor lists.
func JaccardPair(g *graph.Graph, u, v int32) JaccardPairScore {
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	inter := int32(intersectCount(nu, nv))
	union := int32(len(nu)) + int32(len(nv)) - inter
	s := JaccardPairScore{U: u, V: v, Inter: inter}
	if union > 0 {
		s.Score = float64(inter) / float64(union)
	}
	return s
}

// JaccardAll computes all vertex pairs with intersection >= minShared and
// Jaccard score >= threshold, without materializing the quadratic pair
// space: row by row, it counts for each u the common neighbors of every
// partner v > u (the wedges u–x–v), so only pairs with at least one common
// neighbor are ever touched. This is the batch NORA computation — minShared=2
// is exactly the paper's "shared an address 2 or more times".
//
// Output is sorted by descending score, then U, then V. maxPairs>0
// truncates to the top maxPairs ("top k" output class of Fig. 1).
func JaccardAll(g *graph.Graph, minShared int32, threshold float64, maxPairs int) []JaccardPairScore {
	return jaccardRows(g, minShared, threshold, maxPairs, par.Opt{Name: "jaccard.rows", Workers: 1})
}

// JaccardAllParallel is JaccardAll with the rows fanned out through the par
// scheduler. Each pair belongs to exactly one row and the output order is
// total, so the result is byte-identical to JaccardAll for any worker count.
func JaccardAllParallel(g *graph.Graph, minShared int32, threshold float64, maxPairs int) []JaccardPairScore {
	return jaccardRows(g, minShared, threshold, maxPairs, par.Opt{Name: "jaccard.rows"})
}

// jaccardTrimSlack is how far past 2*maxPairs a worker's candidate list
// grows before it is cut back to the best maxPairs, so that a cut's sort is
// amortised over at least this many appends even when maxPairs is 1.
const jaccardTrimSlack = 64

// compareJaccardPairs is the batch output order (score desc, U asc, V asc),
// a total order over distinct pairs.
func compareJaccardPairs(a, b JaccardPairScore) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// bestJaccardPairs sorts pairs into output order, in place, and keeps the
// first maxPairs of them (all when maxPairs <= 0).
func bestJaccardPairs(pairs []JaccardPairScore, maxPairs int) []JaccardPairScore {
	slices.SortFunc(pairs, compareJaccardPairs)
	if maxPairs > 0 && len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	return pairs
}

// jaccardRows is the batch kernel behind JaccardAll (one worker) and
// JaccardAllParallel. Row u's wedge centres are the vertices with an arc to
// u; the partners they reach are counted in a dense per-worker accumulator
// (array indexing, no hashing), and the row is scored and thresholded at
// once. With maxPairs > 0 a worker holds on to its best maxPairs candidates
// only: the top maxPairs overall are among the workers' own.
func jaccardRows(g *graph.Graph, minShared int32, threshold float64, maxPairs int, opt par.Opt) []JaccardPairScore {
	if minShared < 1 {
		minShared = 1
	}
	n := g.NumVertices()
	centres := g.Transpose() // g itself, shared, when undirected
	type rowWorker struct {
		common  *scratch.SPA[int32]
		pairs   []JaccardPairScore
		trimmed bool // pairs[maxPairs-1] is the worst of the best maxPairs so far
	}
	workers := make([]rowWorker, opt.WorkerCount())
	par.ForW(int(n), opt, func(w, lo, hi int) {
		if workers[w].common == nil {
			workers[w].common = BorrowVertexCounts(n)
			if maxPairs > 0 {
				workers[w].pairs = make([]JaccardPairScore, 0, 2*maxPairs+jaccardTrimSlack)
			}
		}
		st := workers[w] // a copy: neighbouring workers' appends share no cache line
		for u := int32(lo); u < int32(hi); u++ {
			st.common.Reset()
			for _, x := range centres.Neighbors(u) {
				ns := g.Neighbors(x)
				for i := len(ns) - 1; i >= 0 && ns[i] > u; i-- {
					st.common.Add(ns[i], 1)
				}
			}
			du := g.Degree(u)
			for _, v := range st.common.Touched() {
				c := st.common.Value(v)
				if c < minShared {
					continue
				}
				p := JaccardPairScore{U: u, V: v, Inter: c, Score: jaccardScore(c, du, g.Degree(v))}
				if p.Score < threshold || st.trimmed && compareJaccardPairs(p, st.pairs[maxPairs-1]) > 0 {
					continue
				}
				st.pairs = append(st.pairs, p)
			}
			if maxPairs > 0 && len(st.pairs) >= 2*maxPairs+jaccardTrimSlack {
				st.pairs, st.trimmed = bestJaccardPairs(st.pairs, maxPairs), true
			}
		}
		workers[w] = st
	})
	out := workers[0].pairs
	for _, st := range workers[1:] {
		out = append(out, st.pairs...)
	}
	for _, st := range workers {
		if st.common != nil {
			ReturnVertexCounts(st.common)
		}
	}
	if out == nil {
		out = []JaccardPairScore{}
	}
	return bestJaccardPairs(out, maxPairs)
}

// JaccardFromVertex returns all vertices with a nonzero Jaccard coefficient
// with u (optionally above threshold), the per-query form of streaming
// Jaccard the paper describes ("for each provided vertex return what other
// vertices have a non-zero Jaccard coefficient"). Cost is proportional to
// the 2-hop neighborhood of u, not the graph. Results are ordered by score
// descending, partner id ascending on ties.
func JaccardFromVertex(g *graph.Graph, u int32, threshold float64) []JaccardPairScore {
	out, _ := AppendJaccardFromVertexCtx(context.Background(), nil, g, u, threshold)
	return out
}

// jaccardScore is |N(u)∩N(v)| / |N(u)∪N(v)| from the intersection size and
// the two degrees.
func jaccardScore(inter, du, dv int32) float64 {
	if union := du + dv - inter; union > 0 {
		return float64(inter) / float64(union)
	}
	return 0
}

// AppendJaccardRanked scores every partner in common (v -> |N(u)∩N(v)|)
// against u and appends those with a positive score at or above threshold
// to dst, ordered by score descending, partner id ascending on ties. It is
// the one score-and-rank routine behind every per-vertex Jaccard answer —
// the kernel passes g.Degree, the cluster coordinator its gathered degree
// vector — so their outputs cannot drift.
func AppendJaccardRanked(dst []JaccardPairScore, common *scratch.SPA[int32], u int32, degree func(int32) int32, threshold float64) []JaccardPairScore {
	rs := rankPool.Get()
	defer rankPool.Put(rs)
	a, du := slices.Grow(rs.a[:0], common.Len()), degree(u)
	for _, v := range common.Touched() {
		c := common.Value(v)
		if score := jaccardScore(c, du, degree(v)); score >= threshold && score > 0 {
			a = append(a, rankEntry{key: ^math.Float64bits(score), v: v, inter: c})
		}
	}
	rs.a = a
	dst = slices.Grow(dst, len(a))
	for _, e := range rs.sorted() {
		dst = append(dst, JaccardPairScore{U: u, V: e.v, Inter: e.inter, Score: math.Float64frombits(^e.key)})
	}
	return dst
}

// MaxJaccardFor returns the best-scoring partner of u, or ok=false when u
// has no 2-hop partners. Streaming centrality-style triggers use this: "on
// addition of an edge, what does the modification do to the maximum Jaccard
// coefficient the two vertices may have with any other".
func MaxJaccardFor(g *graph.Graph, u int32) (best JaccardPairScore, ok bool) {
	common := BorrowVertexCounts(g.NumVertices())
	defer ReturnVertexCounts(common)
	for _, x := range g.Neighbors(u) {
		for _, v := range g.Neighbors(x) {
			if v != u {
				common.Add(v, 1)
			}
		}
	}
	du := g.Degree(u)
	for _, v := range common.Touched() {
		c := common.Value(v)
		if score := jaccardScore(c, du, g.Degree(v)); score > best.Score || (score == best.Score && ok && v < best.V) {
			best, ok = JaccardPairScore{U: u, V: v, Inter: c, Score: score}, true
		}
	}
	return best, ok
}

func pairKey(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(uint32(v))
}

func unpairKey(k int64) (int32, int32) {
	return int32(k >> 32), int32(uint32(k))
}
