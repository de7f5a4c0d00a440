package streaming

import (
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/kernels"
)

// TriangleCounter maintains the global triangle count of an undirected
// dynamic graph under edge insertions and deletions. The delta for an
// update (u,v) is |N(u)∩N(v)| evaluated against the graph state *without*
// the edge — O(min-degree) per update instead of a full batch recount,
// which is the entire point of the streaming form of GTC in Fig. 1.
type TriangleCounter struct {
	g     *dyngraph.DynGraph
	Count int64
}

// NewTriangleCounter wraps an existing dynamic graph, seeding the count
// from a batch recount of the current snapshot.
func NewTriangleCounter(g *dyngraph.DynGraph) *TriangleCounter {
	tc := &TriangleCounter{g: g}
	if g.NumArcs() > 0 {
		tc.Count = kernels.GlobalTriangleCount(g.Snapshot())
	}
	return tc
}

// Apply processes one edge update and returns the triangle-count delta.
func (tc *TriangleCounter) Apply(u gen.EdgeUpdate) int64 {
	if u.Delete {
		if !tc.g.HasEdge(u.Src, u.Dst) {
			return 0
		}
		tc.g.DeleteEdge(u.Src, u.Dst)
		delta := -int64(tc.g.CommonNeighborCount(u.Src, u.Dst))
		tc.Count += delta
		return delta
	}
	if tc.g.HasEdge(u.Src, u.Dst) || u.Src == u.Dst {
		return 0
	}
	delta := int64(tc.g.CommonNeighborCount(u.Src, u.Dst))
	tc.g.InsertEdge(u.Src, u.Dst, 1, u.Time)
	tc.Count += delta
	return delta
}
