package dyngraph

import "repro/internal/gen"

// BatchResult summarizes one applied update batch, mirroring STINGER's
// batch-update reporting.
type BatchResult struct {
	Inserted int64 // new edges created
	Updated  int64 // existing edges refreshed (weight/time)
	Deleted  int64 // edges removed
	NoOps    int64 // deletes of absent edges
}

// ApplyBatch applies a batch of updates in order. STINGER-style systems
// ingest updates in batches to amortize synchronization; here the value is
// aggregate accounting plus a single entry point the engine and benchmarks
// share.
func (g *DynGraph) ApplyBatch(updates []gen.EdgeUpdate) BatchResult {
	var res BatchResult
	for _, u := range updates {
		if u.Delete {
			if g.DeleteEdge(u.Src, u.Dst) {
				res.Deleted++
			} else {
				res.NoOps++
			}
			continue
		}
		if g.InsertEdge(u.Src, u.Dst, 1, u.Time) {
			res.Inserted++
		} else {
			res.Updated++
		}
	}
	return res
}

// Edit is one weighted graph modification, the serving-layer superset of
// gen.EdgeUpdate: an insert with Weight == 0 is normalized to weight 1 (a
// plain topology edge), an insert on an existing edge updates its weight
// and timestamp (the paper's "updating some properties" path), and Delete
// removes the edge.
type Edit struct {
	Src, Dst int32
	Weight   float32
	Time     int64
	Delete   bool
}

// ApplyEdits applies a batch of weighted edits in order, the entry point
// the graphd ingest pipeline batches into. Accounting matches ApplyBatch:
// property refreshes of existing edges count as Updated, deletes of absent
// edges as NoOps.
func (g *DynGraph) ApplyEdits(edits []Edit) BatchResult {
	var res BatchResult
	for _, e := range edits {
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
