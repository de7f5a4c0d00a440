package dyngraph

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// SnapshotDelta freezes the current state as an immutable graph that is the
// next version of a previous snapshot: adjacency rows of vertices listed in
// touched are rebuilt from the dynamic block chains, every other row is
// prev's. The result equals Snapshot() (self-loops excluded, rows sorted by
// target, weights and timestamps carried).
//
// Snapshots taken one from another form a chain over a shared append-only
// arc arena (see graph.Emitter). While prev is the newest version of its
// chain and the arena has room, the call copies the row index (16 B per
// vertex) and appends the touched rows: O(n + touched arcs), however large
// the graph. Otherwise — the arena is full, which with its 2x sizing is
// about one bump in live-arcs/touched-arcs; a later version was already
// patched from prev; or prev came from Snapshot(), a file or a Builder —
// every row is emitted into a fresh arena, untouched ones by bulk copy:
// O(n + arcs), the start of a new chain. Either way prev and all older
// versions stay valid and unchanged, so readers need no lock and nobody has
// to say when they are done with a version.
//
// touched must contain every vertex whose adjacency row may have changed
// since prev was taken; for undirected graphs that means both endpoints of
// every applied edit. Ascending distinct IDs (incr.TouchedVertices) are
// walked as given, anything else is sorted into that form first;
// out-of-range entries are ignored. When prev is nil or structurally
// incompatible (vertex count, directedness, missing weight or timestamp
// arrays), SnapshotDelta falls back to a full Snapshot().
func (g *DynGraph) SnapshotDelta(prev *graph.Graph, touched []int32) *graph.Graph {
	n := g.NumVertices()
	if prev == nil || prev.NumVertices() != n || prev.Directed() != g.directed ||
		!prev.Weighted() || !prev.Timestamped() {
		return g.Snapshot()
	}
	for i := 1; i < len(touched); i++ {
		if touched[i-1] >= touched[i] {
			touched = slices.Clone(touched)
			slices.Sort(touched)
			touched = slices.Compact(touched)
			break
		}
	}
	first, _ := slices.BinarySearch(touched, 0)
	end, _ := slices.BinarySearch(touched, n)
	return g.emitRows(prev, touched[first:end])
}

// emitRows is the one row emitter behind Snapshot and SnapshotDelta. It
// rebuilds the rows listed in touched (ascending, distinct, in range) — or
// every row when prev is nil — each a gather from the block chain sorted by
// target with self-loops dropped, and leaves the rest to the graph.Emitter,
// which keeps or copies them from prev. prev must be compatible as
// SnapshotDelta checks.
func (g *DynGraph) emitRows(prev *graph.Graph, touched []int32) *graph.Graph {
	n := g.NumVertices()
	rows := int32(len(touched))
	if prev == nil {
		rows = n
	}
	vertex := func(i int32) int32 {
		if prev == nil {
			return i
		}
		return touched[i]
	}

	// The arcs to write, and with them the arcs the new version holds, have
	// to be known before the first row lands: they are what is claimed.
	var fresh, live int64
	if prev != nil {
		live = prev.NumEdges()
	}
	var widest int32
	for i := int32(0); i < rows; i++ {
		v := vertex(i)
		widest = max(widest, g.degree[v])
		cnt := int64(g.degree[v])
		if g.HasEdge(v, v) { // snapshots never carry self-loops
			cnt--
		}
		fresh += cnt
		if prev != nil {
			live -= int64(prev.Degree(v))
		}
	}
	live += fresh

	e := graph.NewEmitter(n, g.directed, prev, fresh, live)
	row := make([]edgeSlot, 0, widest)
	for i := int32(0); i < rows; i++ {
		v := vertex(i)
		row = row[:0]
		for b := g.adj[v]; b != nil; b = b.next {
			for _, s := range b.slots {
				if s.dst != v {
					row = append(row, s)
				}
			}
		}
		slices.SortFunc(row, func(a, b edgeSlot) int { return cmp.Compare(a.dst, b.dst) })
		targets, weights, times := e.Row(v, len(row))
		for j, s := range row {
			targets[j] = s.dst
			weights[j] = s.weight
			times[j] = s.time
		}
	}
	return e.Graph()
}
