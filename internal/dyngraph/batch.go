package dyngraph

import "repro/internal/wire"

// BatchResult summarizes one applied update batch, mirroring STINGER's
// batch-update reporting.
type BatchResult struct {
	Inserted int64 // new edges created
	Updated  int64 // existing edges refreshed (weight/time)
	Deleted  int64 // edges removed
	NoOps    int64 // deletes of absent edges, and self-loops
}

// Edit is one weighted graph modification, the record graphd's ingest
// protocols carry: an insert with Weight == 0 is normalized to weight 1 (a
// plain topology edge), an insert on an existing edge updates its weight
// and timestamp (the paper's "updating some properties" path), and Delete
// removes the edge.
type Edit = wire.IngestEdit

// ApplyEdits applies a batch of weighted edits in order, the entry point
// the graphd ingest pipeline batches into. STINGER-style systems ingest
// updates in batches to amortize synchronization. Property refreshes of
// existing edges count as Updated, deletes of absent edges as NoOps. A
// self-loop is a NoOp too and is never stored: no snapshot holds one, so
// storing it would count an edge no query or restart ever sees.
func (g *DynGraph) ApplyEdits(edits []Edit) BatchResult {
	var res BatchResult
	for _, e := range edits {
		if e.Src == e.Dst {
			res.NoOps++
			continue
		}
		if e.Delete {
			if g.DeleteEdge(e.Src, e.Dst) {
				res.Deleted++
			} else {
				res.NoOps++
			}
			continue
		}
		w := e.Weight
		if w == 0 {
			w = 1
		}
		if g.InsertEdge(e.Src, e.Dst, w, e.Time) {
			res.Inserted++
		} else {
			res.Updated++
		}
	}
	return res
}
