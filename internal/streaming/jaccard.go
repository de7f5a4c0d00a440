package streaming

import (
	"time"

	"repro/internal/dyngraph"
	"repro/internal/kernels"
	"repro/internal/scratch"
	"repro/internal/telemetry"
)

// StreamingJaccard implements both streaming forms the paper describes for
// Jaccard coefficients:
//
//  1. Edge-update driven: ApplyUpdate ingests an edge and reports the new
//     maximum Jaccard coefficient either endpoint attains with any other
//     vertex, so a caller can watch for threshold crossings.
//  2. Query driven: Query(v) returns all vertices with a nonzero (or
//     above-threshold) coefficient with v, computed on demand from the
//     current graph — "a sequence of vertices, where for each provided
//     vertex the kernel should return what other vertices have a non-zero
//     Jaccard coefficient".
type StreamingJaccard struct {
	g *dyngraph.DynGraph
	// common-neighbor SPA reused across queries: flat array indexing
	// instead of map scatter on the per-query hot path, grown lazily as
	// the dynamic graph grows.
	common *scratch.SPA[int32]

	queryHist  *telemetry.Histogram
	updateHist *telemetry.Histogram
}

// NewStreamingJaccard wraps a dynamic graph, uninstrumented; call
// Instrument to record latencies.
func NewStreamingJaccard(g *dyngraph.DynGraph) *StreamingJaccard {
	return &StreamingJaccard{g: g, common: scratch.NewSPA[int32](int(g.NumVertices()))}
}

// Instrument records per-query and per-update latency histograms into reg
// (streaming_jaccard_query_seconds, streaming_jaccard_update_seconds) — the
// measured form of the paper's tens-of-microseconds Jaccard query claim.
// Returns sj for chaining.
func (sj *StreamingJaccard) Instrument(reg *telemetry.Registry) *StreamingJaccard {
	sj.queryHist = reg.Histogram("streaming_jaccard_query_seconds")
	sj.updateHist = reg.Histogram("streaming_jaccard_update_seconds")
	return sj
}

// ApplyUpdate applies the edge update and returns the post-update maximum
// coefficient over both endpoints (ok=false when neither endpoint has any
// 2-hop partner).
func (sj *StreamingJaccard) ApplyUpdate(u dyngraph.Edit) (kernels.JaccardPairScore, bool) {
	var start time.Time
	if sj.updateHist.Live() {
		start = time.Now()
		defer func() { sj.updateHist.ObserveSince(start) }()
	}
	sj.g.ApplyEdits([]dyngraph.Edit{u})
	best, ok := sj.MaxFor(u.Src)
	if b2, ok2 := sj.MaxFor(u.Dst); ok2 && (!ok || b2.Score > best.Score) {
		best, ok = b2, true
	}
	return best, ok
}

// MaxFor returns v's best-scoring Jaccard partner.
func (sj *StreamingJaccard) MaxFor(v int32) (kernels.JaccardPairScore, bool) {
	all := sj.Query(v, 0)
	if len(all) == 0 {
		return kernels.JaccardPairScore{}, false
	}
	return all[0], true
}

// Query returns all partners of v with score >= threshold (and > 0),
// descending by score, partner id ascending on ties: the kernel's ranking
// (kernels.AppendJaccardRanked) over counts gathered from the live graph.
// Cost is proportional to v's 2-hop neighborhood.
func (sj *StreamingJaccard) Query(v int32, threshold float64) []kernels.JaccardPairScore {
	if sj.queryHist.Live() {
		start := time.Now()
		defer func() { sj.queryHist.ObserveSince(start) }()
	}
	sj.common.Grow(int(sj.g.NumVertices()))
	sj.common.Reset()
	sj.g.ForEachNeighbor(v, func(x int32, _ float32, _ int64) {
		sj.g.ForEachNeighbor(x, func(w int32, _ float32, _ int64) {
			if w != v {
				sj.common.Add(w, 1)
			}
		})
	})
	return kernels.AppendJaccardRanked(nil, sj.common, v, sj.g.Degree, threshold)
}
