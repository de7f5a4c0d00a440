package dyngraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

type edgeSlot struct {
	dst    int32
	weight float32
	time   int64
}

// DynGraph is a mutable directed or undirected graph with no parallel arcs
// and no self-loops. Each vertex's out-arcs are one slice of slots sorted
// by target: a lookup is a binary search, an insert or delete shifts the
// row's tail, and iteration and snapshots read the row in ascending target
// order as it stands, with no gather and no sort. Undirected graphs store
// each edge in both endpoints' rows. ApplyEdits is the only way to change
// one after New or FromCSRGraph. Not safe for concurrent mutation; the
// streaming engine serializes updates, matching the single-writer model of
// STINGER's update batches.
type DynGraph struct {
	rows     [][]edgeSlot
	directed bool
	numArcs  int64
}

// New creates an empty dynamic graph with n vertices.
func New(n int32, directed bool) *DynGraph {
	return &DynGraph{rows: make([][]edgeSlot, n), directed: directed}
}

// NumVertices returns the vertex count.
func (g *DynGraph) NumVertices() int32 { return int32(len(g.rows)) }

// NumArcs returns stored directed arcs (undirected edges count twice).
func (g *DynGraph) NumArcs() int64 { return g.numArcs }

// NumEdges returns logical edges.
func (g *DynGraph) NumEdges() int64 {
	if g.directed {
		return g.numArcs
	}
	return g.numArcs / 2
}

// Directed reports the directedness.
func (g *DynGraph) Directed() bool { return g.directed }

// Degree returns the current out-degree of v.
func (g *DynGraph) Degree(v int32) int32 { return int32(len(g.rows[v])) }

// HasEdge reports whether arc v->w currently exists.
func (g *DynGraph) HasEdge(v, w int32) bool {
	_, ok := find(g.rows[v], w)
	return ok
}

// find returns the position of target w in the sorted row, or the position
// it would be inserted at, and whether the row holds it. It is a loop, not
// slices.BinarySearchFunc, whose comparison closure made ApplyEdits about
// 15 % slower (BenchmarkDynBatchApply).
func find(row []edgeSlot, w int32) (int, bool) {
	lo, hi := 0, len(row)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if row[m].dst < w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(row) && row[lo].dst == w
}

// insertEdge adds edge (v,w) with the given weight and timestamp, or
// refreshes them when the edge is already stored, and reports whether it
// was new. ApplyEdits has dropped a self-loop before it calls this.
func (g *DynGraph) insertEdge(v, w int32, weight float32, time int64) bool {
	created := g.insertArc(v, w, weight, time)
	if !g.directed {
		g.insertArc(w, v, weight, time)
	}
	return created
}

// insertArc inserts arc v->w at its place in v's row, or refreshes its
// weight and timestamp when it is already stored, and reports whether it
// was new.
func (g *DynGraph) insertArc(v, w int32, weight float32, time int64) bool {
	row := g.rows[v]
	i, ok := find(row, w)
	if ok {
		row[i].weight, row[i].time = weight, time
		return false
	}
	g.rows[v] = slices.Insert(row, i, edgeSlot{dst: w, weight: weight, time: time})
	g.numArcs++
	return true
}

// deleteEdge removes edge (v,w) and reports whether it existed.
func (g *DynGraph) deleteEdge(v, w int32) bool {
	ok := g.deleteArc(v, w)
	if !g.directed {
		g.deleteArc(w, v)
	}
	return ok
}

// deleteArc removes arc v->w and reports whether it was stored.
func (g *DynGraph) deleteArc(v, w int32) bool {
	i, ok := find(g.rows[v], w)
	if ok {
		g.rows[v] = slices.Delete(g.rows[v], i, i+1)
		g.numArcs--
	}
	return ok
}

// ForEachNeighbor calls fn for every out-neighbor of v with its weight and
// timestamp, in ascending neighbor order. fn must not change the graph.
func (g *DynGraph) ForEachNeighbor(v int32, fn func(w int32, weight float32, time int64)) {
	for _, s := range g.rows[v] {
		fn(s.dst, s.weight, s.time)
	}
}

// Neighbors returns a freshly allocated sorted slice of v's out-neighbors.
func (g *DynGraph) Neighbors(v int32) []int32 {
	row := g.rows[v]
	out := make([]int32, len(row))
	for i, s := range row {
		out[i] = s.dst
	}
	return out
}

// CommonNeighborCount counts vertices adjacent to both u and v — the inner
// loop of incremental triangle counting and streaming Jaccard — by one
// merge of the two sorted rows: O(deg u + deg v), no allocation.
func (g *DynGraph) CommonNeighborCount(u, v int32) int32 {
	a, b := g.rows[u], g.rows[v]
	var count int32
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i].dst, b[j].dst; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// Snapshot freezes the current state as an immutable CSR graph, the bridge
// from the streaming side of Fig. 2 to batch analytics on extracted
// subgraphs. Rows are sorted by target, weights and timestamps are carried.
// It is SnapshotDelta with every row touched: one copy of every row, no
// sort.
func (g *DynGraph) Snapshot() *graph.Graph { return g.emitRows(nil, nil, nil) }

// FromCSRGraph bulk-loads an immutable graph into a fresh dynamic graph in
// O(arcs). CSR rows are already sorted and duplicate-free, and an
// undirected CSR stores both arc directions, so each row is copied as it
// stands: no per-edge search and no symmetric re-insertion. Each row gets
// its own array with room for a quarter more arcs (loadRoom), so a
// recovered graph takes its first inserts without moving rows, and a row
// that outgrows its array frees it. A self-loop is skipped, as ApplyEdits
// skips one: rows are sorted, so a binary search finds v's own arc. This is
// the recovery path for flat snapshots.
func FromCSRGraph(src *graph.Graph) *DynGraph {
	n := src.NumVertices()
	g := New(n, src.Directed())
	for v := int32(0); v < n; v++ {
		targets, weights, times := src.Neighbors(v), src.NeighborWeights(v), src.NeighborTimes(v)
		if i, ok := slices.BinarySearch(targets, v); ok {
			targets, weights, times = without(targets, i), without(weights, i), without(times, i)
		}
		if len(targets) == 0 {
			continue
		}
		row := make([]edgeSlot, len(targets), loadRoom(len(targets)))
		for j, w := range targets {
			s := &row[j]
			s.dst, s.weight = w, 1
			if weights != nil {
				s.weight = weights[j]
			}
			if times != nil {
				s.time = times[j]
			}
		}
		g.rows[v] = row
		g.numArcs += int64(len(row))
	}
	return g
}

// loadRoom is the capacity FromCSRGraph gives a row of n arcs: a quarter
// more, and two slots for a short row. A row that fills up grows by
// slices.Insert's append growth, so every growth copies the row; the room
// keeps a freshly recovered graph from paying that copy on the first
// insert into each row it touches.
func loadRoom(n int) int { return n + n/4 + 2 }

// without returns a copy of s with element i left out, or s itself when it
// has no element i (a graph without weights or timestamps).
func without[T any](s []T, i int) []T {
	if i >= len(s) {
		return s
	}
	return append(s[:i:i], s[i+1:]...)
}

// Validate checks internal consistency: every row is strictly ascending
// (so holds no duplicate arc), no self-loop is stored, undirected symmetry
// holds, and the arc count matches the rows.
func (g *DynGraph) Validate() error {
	var arcs int64
	for v, row := range g.rows {
		for i, s := range row {
			switch {
			case s.dst == int32(v):
				return fmt.Errorf("dyngraph: self-loop at %d", v)
			case i > 0 && row[i-1].dst >= s.dst:
				return fmt.Errorf("dyngraph: row %d not strictly ascending at %d: %d then %d", v, i, row[i-1].dst, s.dst)
			case !g.directed && !g.HasEdge(s.dst, int32(v)):
				return fmt.Errorf("dyngraph: asymmetric arc %d->%d", v, s.dst)
			}
		}
		arcs += int64(len(row))
	}
	if arcs != g.numArcs {
		return fmt.Errorf("dyngraph: arc count %d != stored %d", arcs, g.numArcs)
	}
	return nil
}
