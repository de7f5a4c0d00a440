package main

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/wire"
)

const (
	topK       = 10
	khopDepth  = 2
	rankTol    = 1e-6 // |served rank - kernels.PageRank| per vertex
	scoreSlack = 1e-9 // relative slack on a summed Jaccard score
)

// digest identifies a set-valued answer without keeping it: the member
// count and an order-independent hash. Jaccard answers add the score sum.
type digest struct {
	count int
	hash  uint64
	score float64
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func khopDigest(vs []int32) digest {
	d := digest{count: len(vs)}
	for _, v := range vs {
		d.hash += mix64(uint64(uint32(v)))
	}
	return d
}

// oracle holds the expected answers for one graph, computed with the
// sequential kernels on the benchmark's own copy.
type oracle struct {
	g         *graph.Graph
	cc        *kernels.CCResult
	sizes     []int64
	rank      []float64
	topScores []float64
	khop      map[int32]digest
	jaccard   map[int32]digest
}

// newOracle computes the whole-graph answers and, for every vertex in
// travs, the khop and jaccard digests (one goroutine per CPU; no server is
// running while this does).
func newOracle(g *graph.Graph, travs []int32) *oracle {
	o := &oracle{g: g, cc: kernels.WCC(g)}
	o.sizes = make([]int64, g.NumVertices())
	for _, l := range o.cc.Label {
		o.sizes[l]++
	}
	o.rank, _ = kernels.PageRank(g, kernels.DefaultPageRankOptions())
	for _, sv := range kernels.TopKByDegree(g, topK) {
		o.topScores = append(o.topScores, sv.Score)
	}
	o.khop = make(map[int32]digest, len(travs))
	o.jaccard = make(map[int32]digest, len(travs))
	kd := make([]digest, len(travs))
	jd := make([]digest, len(travs))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(travs); i += workers {
				kd[i] = khopDigest(kernels.KHopNeighborhood(g, []int32{travs[i]}, khopDepth))
				pairs := kernels.JaccardFromVertex(g, travs[i], 0)
				d := digest{count: len(pairs)}
				for _, p := range pairs {
					d.hash += mix64(uint64(uint32(p.V))<<32 | uint64(uint32(p.Inter)))
					d.score += p.Score
				}
				jd[i] = d
			}
		}(w)
	}
	wg.Wait()
	for i, v := range travs {
		o.khop[v] = kd[i]
		o.jaccard[v] = jd[i]
	}
	return o
}

func (o *oracle) checkComponent(v int32, r *wire.ComponentResult) bool {
	l := o.cc.Label[v]
	return r.V == v && r.Component == l && r.Size == o.sizes[l] && r.NumComponents == o.cc.NumComponents
}

func (o *oracle) checkPageRank(v int32, r *wire.PageRankResult) bool {
	return r.V != nil && *r.V == v && r.Rank != nil && math.Abs(*r.Rank-o.rank[v]) <= rankTol
}

// checkTopDegree compares scores position by position and each vertex's
// score with its own degree, so any valid tie order passes.
func (o *oracle) checkTopDegree(r *wire.TopDegreeResult) bool {
	if len(r.Results) != len(o.topScores) {
		return false
	}
	seen := make(map[int32]bool, len(r.Results))
	for i, sv := range r.Results {
		if sv.Score != o.topScores[i] || sv.V < 0 || sv.V >= o.g.NumVertices() ||
			float64(o.g.Degree(sv.V)) != sv.Score || seen[sv.V] {
			return false
		}
		seen[sv.V] = true
	}
	return true
}

func (o *oracle) checkKHop(v int32, r *wire.KHopResult) bool {
	want, ok := o.khop[v]
	return ok && r.Count == len(r.Vertices) && khopDigest(r.Vertices) == want
}

func (o *oracle) checkJaccard(u int32, r *wire.JaccardResult) bool {
	want, ok := o.jaccard[u]
	if !ok || r.U != u || len(r.Results) != want.count {
		return false
	}
	var hash uint64
	var score float64
	prev := math.Inf(1)
	for _, p := range r.Results {
		if p.Score > prev || p.Score <= 0 || p.Score > 1 {
			return false // best first, every score a Jaccard coefficient
		}
		prev = p.Score
		hash += mix64(uint64(uint32(p.V))<<32 | uint64(uint32(p.Inter)))
		score += p.Score
	}
	return hash == want.hash && math.Abs(score-want.score) <= scoreSlack*math.Max(1, want.score)
}
