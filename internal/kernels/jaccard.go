package kernels

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/graph"
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
// space: it enumerates wedges (u–x–v) so only pairs with at least one common
// neighbor are ever touched. This is the batch NORA computation — minShared=2
// is exactly the paper's "shared an address 2 or more times".
//
// Output is sorted by descending score. maxPairs>0 truncates to the top
// maxPairs ("top k" output class of Fig. 1).
func JaccardAll(g *graph.Graph, minShared int32, threshold float64, maxPairs int) []JaccardPairScore {
	n := g.NumVertices()
	if minShared < 1 {
		minShared = 1
	}
	// Count common neighbors per pair via wedge enumeration, keyed on the
	// lower vertex to halve memory.
	counts := borrowWedgeMap()
	defer returnWedgeMap(counts)
	for x := int32(0); x < n; x++ {
		ns := g.Neighbors(x)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				u, v := ns[i], ns[j]
				if u == v {
					continue
				}
				counts.Add(pairKey(u, v), 1)
			}
		}
	}
	return scoreWedgeCounts(g, counts, minShared, threshold, maxPairs)
}

// scoreWedgeCounts turns a pair -> common-neighbor-count accumulator into
// the filtered, score-sorted pair list shared by JaccardAll and
// JaccardAllParallel. The (score desc, U asc, V asc) sort is a total order
// over distinct pairs, so the output is independent of accumulation order.
func scoreWedgeCounts(g *graph.Graph, counts *scratch.Map64[int32], minShared int32, threshold float64, maxPairs int) []JaccardPairScore {
	out := make([]JaccardPairScore, 0, counts.Len()/4)
	counts.ForEach(func(key int64, c int32) {
		if c < minShared {
			return
		}
		u, v := unpairKey(key)
		if score := jaccardScore(c, g.Degree(u), g.Degree(v)); score >= threshold {
			out = append(out, JaccardPairScore{U: u, V: v, Inter: c, Score: score})
		}
	})
	slices.SortFunc(out, func(a, b JaccardPairScore) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	if maxPairs > 0 && len(out) > maxPairs {
		out = out[:maxPairs]
	}
	return out
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
