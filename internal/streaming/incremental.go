package streaming

import (
	"repro/internal/dyngraph"
	"repro/internal/kernels"
)

// TriangleCounter maintains the global triangle count of an undirected
// dynamic graph under edge insertions and deletions. The delta for an
// update that adds or removes edge (u,v) is |N(u)∩N(v)|, which the edge
// itself does not change — O(min-degree) per update instead of a full batch
// recount, which is the entire point of the streaming form of GTC in Fig. 1.
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
func (tc *TriangleCounter) Apply(u dyngraph.Edit) int64 {
	res := tc.g.ApplyEdits([]dyngraph.Edit{u})
	if res.Inserted+res.Deleted == 0 {
		return 0
	}
	delta := int64(tc.g.CommonNeighborCount(u.Src, u.Dst))
	if res.Deleted > 0 {
		delta = -delta
	}
	tc.Count += delta
	return delta
}
